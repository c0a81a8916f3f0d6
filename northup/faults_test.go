package northup_test

import (
	"strings"
	"testing"

	"repro/northup"
)

func TestParseFaultsFullSpec(t *testing.T) {
	p, err := northup.ParseFaults(
		"seed=42,rate=0.05,delay-rate=0.1,delay-us=250,alloc-rate=0.02," +
			"offline=1/gpu:2:5,offline=0:10:20")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Config
	if c.Seed != 42 || c.TransferFailRate != 0.05 || c.TransferDelayRate != 0.1 ||
		c.AllocFailRate != 0.02 {
		t.Fatalf("parsed config %+v", c)
	}
	if c.TransferDelay != 250*northup.Microsecond {
		t.Fatalf("delay = %v", c.TransferDelay)
	}
	if len(p.Outages) != 2 {
		t.Fatalf("parsed %d outages", len(p.Outages))
	}
	o := p.Outages[0]
	if o.Node != 1 || o.Class != northup.ProcClassGPU ||
		o.Window.From != 2*northup.Millisecond || o.Window.Until != 5*northup.Millisecond {
		t.Fatalf("outage[0] = %+v", o)
	}
	if p.Outages[1].Class != "" || p.Outages[1].Node != 0 {
		t.Fatalf("outage[1] = %+v", p.Outages[1])
	}
}

func TestParseFaultsRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"seed",                  // not key=value
		"tempo=1",               // unknown key
		"rate=1.5",              // rate out of [0,1]
		"rate=x",                // unparsable
		"seed=1e9",              // seeds are integers
		"delay-us=-3",           // non-positive delay
		"offline=1:5",           // missing field
		"offline=1/tpu:0:5",     // unknown processor class
		"offline=banana:0:5",    // bad node
		"offline=1:5:5",         // empty window
		"offline=1/gpu:bad:5",   // bad from
		"offline=1/gpu:0:worse", // bad until
	} {
		if _, err := northup.ParseFaults(spec); err == nil {
			t.Errorf("ParseFaults(%q) accepted", spec)
		}
	}
}

func TestParseFaultsIgnoresEmptyFields(t *testing.T) {
	p, err := northup.ParseFaults(" seed=7 , ,rate=0.5,")
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Seed != 7 || p.Config.TransferFailRate != 0.5 {
		t.Fatalf("parsed %+v", p.Config)
	}
}

// TestFaultInjectionThroughPublicAPI drives the whole resilience surface
// from outside: parse a spec, inject it, run a transfer loop that must
// survive the faults, and read back both counter sets.
func TestFaultInjectionThroughPublicAPI(t *testing.T) {
	plan, err := northup.ParseFaults("seed=13,rate=0.3,alloc-rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 32, DRAMMiB: 4})
	opts := northup.DefaultOptions()
	opts.Faults = plan.Inject(e)
	opts.Retry = northup.DefaultRetryPolicy()
	rt := northup.NewRuntime(e, tree, opts)

	const n = 64 * northup.KiB
	_, err = rt.Run("survive", func(c *northup.Ctx) error {
		src, err := c.Alloc(n)
		if err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			buf, err := c.AllocAt(c.Children()[0], n)
			if err != nil {
				return err
			}
			if err := c.MoveDataDown(buf, src, 0, 0, n); err != nil {
				return err
			}
			if err := c.Release(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Faults.Stats().Any() {
		t.Fatal("injector stats empty at 30%/20% rates")
	}
	res := rt.Resilience()
	if res.Retries == 0 || res.GaveUp != 0 {
		t.Fatalf("resilience counters off: %v", res)
	}
	if !strings.Contains(rt.ResilienceReport(), "injected") {
		t.Error("resilience report missing injected-stats row")
	}
}

// TestFaultPlanCheckRejectsMissingTargets pins the outage validation
// against the built tree: a node ID outside the tree and a processor-class
// outage on a node without that class are both errors naming the node.
func TestFaultPlanCheckRejectsMissingTargets(t *testing.T) {
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 64, DRAMMiB: 16, WithCPU: true})
	for spec, want := range map[string]string{
		"offline=99/gpu:0:1000": "node 99",
		"offline=2:0:1000":      "node 2",
		"offline=0/gpu:0:1000":  "node0",
	} {
		plan, err := northup.ParseFaults(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		err = plan.Check(tree)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Check error %v, want one naming %q", spec, err, want)
		}
	}
	for _, spec := range []string{"offline=1/gpu:0:2", "offline=1/cpu:0:2", "offline=0:0:1"} {
		plan, err := northup.ParseFaults(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if err := plan.Check(tree); err != nil {
			t.Errorf("%s: valid outage rejected: %v", spec, err)
		}
	}
}

// TestFaultPlanGPUOutageFailsOver drives the documented GPU-outage spec
// through Check and Inject into the CPU+GPU stealing HotSpot: every row
// task must fail over to the CPU.
func TestFaultPlanGPUOutageFailsOver(t *testing.T) {
	plan, err := northup.ParseFaults("seed=7,offline=1/gpu:0:2")
	if err != nil {
		t.Fatal(err)
	}
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 1024, DRAMMiB: 16, WithCPU: true})
	if err := plan.Check(tree); err != nil {
		t.Fatal(err)
	}
	opts := northup.DefaultOptions()
	opts.Faults = plan.Inject(e)
	rt := northup.NewRuntime(e, tree, opts)
	res, err := northup.HotSpotSteal(rt, northup.StealConfig{M: 256, ChunkDim: 256,
		Seed: 1, Iters: 8, Mode: northup.CPUGPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksByGPU != 0 || res.TasksByCPU != 128 || res.Failovers != 128 {
		t.Fatalf("gpu-tasks=%d cpu-tasks=%d failovers=%d, want 0/128/128",
			res.TasksByGPU, res.TasksByCPU, res.Failovers)
	}
}
