package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU-profile sampling rate of traced calls; the default
// 100 Hz leaves too few samples in a sub-second call to split by layer.
const profileHz = 500

// profiledLayers are the repository packages whose self share is reported as
// <layer>.self_frac.
var profiledLayers = []string{"sim", "core", "cache", "sched", "taskgraph", "serve", "journey", "obs", "ops", "trace", "workload"}

// profileShares attributes CPU-profile samples to layers. A sample whose
// leaf frame is in a repository package counts for that package. A leaf
// in the runtime counts as go.gc when a garbage-collector entry point is on
// the stack, as go.sched when it is scheduler, channel or lock code, and
// as go.other otherwise. A leaf in any other standard package (math/rand,
// sort, ...) is charged to the innermost repository frame that called it.
type profileShares struct {
	total int64
	by    map[string]int64
}

// profile runs fn under the CPU profiler and adds its samples to p.
func profile(p *profileShares, fn func() error) error {
	var buf bytes.Buffer
	// StartCPUProfile then fails to reset the rate and says so on stderr.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return p.add(buf.Bytes())
}

// into writes the shares as per-layer metrics.
func (p *profileShares) into(m map[string]float64) {
	for _, l := range profiledLayers {
		m[l+".self_frac"] = ratio(float64(p.by[l]), float64(p.total))
	}
	m["go.sched_frac"] = ratio(float64(p.by["go.sched"]), float64(p.total))
	m["go.gc_frac"] = ratio(float64(p.by["go.gc"]), float64(p.total))
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

var schedWords = []string{"park", "sched", "chan", "casgstatus", "lock", "futex", "ready", "runq", "mcall", "gogo", "wakep", "steal", "execute", "yield", "usleep", "select", "sema", "spinning", "note", "newproc", "gfget", "gfput", "startm", "stopm", "handoff", "goexit", "recv", "send"}

// classify names the layer a sample's stack (leaf first) is charged to.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r {
				return "go.gc"
			}
		}
	}
	if pkg := packageOf(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/") {
		name := strings.ToLower(stack[0])
		for _, w := range schedWords {
			if strings.Contains(name, w) {
				return "go.sched"
			}
		}
		return "go.other"
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(packageOf(f), "repro/internal/"); ok {
			layer, _, _ := strings.Cut(rest, "/")
			return layer
		}
	}
	return "other"
}

// packageOf returns the import path of a function symbol such as
// "repro/internal/sim.(*Engine).Run".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// add decodes one gzipped profile.proto and accumulates its samples.
func (p *profileShares) add(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs, values []uint64
	}
	var (
		samples []sampleRec
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		strs    []string
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sampleRec
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if p.by == nil {
		p.by = map[string]int64{}
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		n := int64(s.values[0]) // the sample count; values[1] is CPU time
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.by[classify(stack)] += n
		p.total += n
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields walks a protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or payload (wire type 2). Fixed-width
// fields are skipped.
func forFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: v itself when
// the field was unpacked (payload nil), else every varint in the packed
// payload.
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
