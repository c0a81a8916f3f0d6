package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseDeterministic(t *testing.T) {
	a := Dense(16, 16, 7)
	b := Dense(16, 16, 7)
	c := Dense(16, 16, 8)
	if len(a) != 256 {
		t.Fatalf("len = %d", len(a))
	}
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed gave different matrices")
	}
	if !diff {
		t.Fatal("different seeds gave identical matrices")
	}
	for _, v := range a {
		if v < -1 || v >= 1 {
			t.Fatalf("entry %g out of range", v)
		}
	}
}

func TestHotSpotGridShape(t *testing.T) {
	g := HotSpotGrid(64, 3)
	if g.N != 64 || len(g.Temp) != 64*64 || len(g.Power) != 64*64 {
		t.Fatal("grid shape wrong")
	}
	var totalPower float64
	for _, p := range g.Power {
		if p < 0 {
			t.Fatal("negative power")
		}
		totalPower += float64(p)
	}
	if totalPower <= 0 {
		t.Fatal("power map empty")
	}
	for _, v := range g.Temp {
		if v < 300 || v > 340 {
			t.Fatalf("temperature %g implausible", v)
		}
	}
}

func TestSparseValidAcrossKinds(t *testing.T) {
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		m := Sparse(kind, 200, 8, 42)
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.NNZ() < 200 { // at least one per row
			t.Fatalf("%v: nnz = %d", kind, m.NNZ())
		}
		// Column indices sorted within each row.
		for r := 0; r < m.NRows; r++ {
			for i := int(m.RowPtr[r]) + 1; i < int(m.RowPtr[r+1]); i++ {
				if m.ColIdx[i-1] > m.ColIdx[i] {
					t.Fatalf("%v: row %d columns unsorted", kind, r)
				}
			}
		}
	}
}

func TestSparseKindsDifferInShape(t *testing.T) {
	n, avg := 2000, 10
	uniform := Sparse(SparseUniform, n, avg, 1)
	power := Sparse(SparsePowerLaw, n, avg, 1)
	maxRow := func(m *CSR) int {
		mx := 0
		for r := 0; r < m.NRows; r++ {
			if l := m.RowNNZ(r); l > mx {
				mx = l
			}
		}
		return mx
	}
	if maxRow(power) < 4*maxRow(uniform) {
		t.Fatalf("power-law tail (max %d) not heavier than uniform (max %d)",
			maxRow(power), maxRow(uniform))
	}
}

func TestSparseBandedStructure(t *testing.T) {
	m := Sparse(SparseBanded, 100, 5, 9)
	for r := 0; r < m.NRows; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			d := int(m.ColIdx[i]) - r
			if d < -5 || d > 5 {
				t.Fatalf("row %d has entry at distance %d from diagonal", r, d)
			}
		}
	}
}

func TestSparseDeterministic(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		a := Sparse(SparsePowerLaw, n, 4, seed)
		b := Sparse(SparsePowerLaw, n, 4, seed)
		if a.NNZ() != b.NNZ() {
			return false
		}
		for i := range a.Val {
			if a.Val[i] != b.Val[i] || a.ColIdx[i] != b.ColIdx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Sparse(SparseUniform, 20, 4, 5)
	m.ColIdx[0] = 100 // out of range
	if err := m.Validate(); err == nil {
		t.Fatal("bad column accepted")
	}
	m = Sparse(SparseUniform, 20, 4, 5)
	m.RowPtr[3] = m.RowPtr[4] + 1
	if err := m.Validate(); err == nil {
		t.Fatal("decreasing row_ptr accepted")
	}
	m = Sparse(SparseUniform, 20, 4, 5)
	m.RowPtr = m.RowPtr[:10]
	if err := m.Validate(); err == nil {
		t.Fatal("short row_ptr accepted")
	}
}

func TestSparseRowPtrMatchesFullGenerator(t *testing.T) {
	// Phantom-mode planning relies on SparseRowPtr reproducing exactly the
	// row structure of the full generator.
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		for _, n := range []int{1, 7, 100, 333} {
			m := Sparse(kind, n, 6, 99)
			if err := m.Validate(); err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
			rp := SparseRowPtr(kind, n, 6, 99)
			if len(rp) != len(m.RowPtr) {
				t.Fatalf("%v n=%d: length mismatch", kind, n)
			}
			for i := range rp {
				if rp[i] != m.RowPtr[i] {
					t.Fatalf("%v n=%d: row_ptr[%d] = %d vs %d", kind, n, i, rp[i], m.RowPtr[i])
				}
			}
		}
	}
}

func TestVectorDeterministic(t *testing.T) {
	a, b := Vector(100, 3), Vector(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("vector not deterministic")
		}
	}
}

// bandedRowLenLoop is the row-by-row count rowLength's banded branch used
// before it became a closed form; it is kept here as the oracle.
func bandedRowLenLoop(n, avgNNZ, row int) int {
	rowLen := max(avgNNZ, 1)
	count := 0
	for c := row - rowLen/2; count < rowLen && c < n; c++ {
		if c >= 0 {
			count++
		}
	}
	return count
}

func TestBandedRowLengthMatchesLoop(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		for _, avg := range []int{1, 2, 3, 6, 16, n + 5} {
			for r := 0; r < n; r++ {
				got := rowLength(SparseBanded, nil, nil, n, avg, r)
				if want := bandedRowLenLoop(n, avg, r); got != want {
					t.Fatalf("n=%d avg=%d row %d: %d, loop gives %d", n, avg, r, got, want)
				}
			}
		}
	}
}

// TestPowerLawTableMatchesFormula walks ±64 ulps around every bucket's
// lower edge and step threshold, and around both guard edges of each, and
// requires the table to give powerLawLen's answer at every point.
func TestPowerLawTableMatchesFormula(t *testing.T) {
	const n = math.MaxInt32
	const walk = 64
	var pl powerLawTable
	for _, avg := range []int{1, 2, 3, 6, 16, 64, 1000} {
		pl.build(avg, n)
		hit := 0.0 // probability that a draw resolves without the formula
		for i, e := range pl.bk {
			lo := math.Float64frombits(uint64(plKeyMin+i) << (52 - plMantBits))
			hi := math.Float64frombits(uint64(plKeyMin+i+1) << (52 - plMantBits))
			if e.kind != plFallback {
				hit += hi - lo
			}
			centers := []float64{lo}
			if e.kind == plStep {
				centers = append(centers, e.b)
			}
			for _, x := range centers {
				for _, edge := range []float64{x, x * (1 - plGuard), x * (1 + plGuard)} {
					u := edge
					for k := 0; k < walk; k++ {
						u = math.Nextafter(u, 0)
					}
					for k := 0; k <= 2*walk; k++ {
						if got, want := pl.length(u), powerLawLen(u, pl.c, n); got != want {
							t.Fatalf("avg=%d bucket %d u=%v: table %d, formula %d", avg, i, u, got, want)
						}
						u = math.Nextafter(u, 1)
					}
				}
			}
		}
		if avg <= 64 && hit < 0.95 {
			t.Errorf("avg=%d: only %.3f of draws resolve without the formula", avg, hit)
		}
	}
}

func TestPowerLawTableEdgeInputs(t *testing.T) {
	var pl powerLawTable
	pl.build(16, 1000)
	for _, u := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-33, 0x1p-32,
		math.Nextafter(0x1p-32, 0), 0.5, math.Nextafter(1, 0)} {
		if got, want := pl.length(u), powerLawLen(u, pl.c, pl.n); got != want {
			t.Fatalf("u=%v: table %d, formula %d", u, got, want)
		}
	}
	pl.build(0, 1000) // no table: every lookup falls back
	if got := pl.length(0.5); got != 1 {
		t.Fatalf("avgNNZ 0: length %d, want the clamp floor 1", got)
	}
}

// TestSparseRowPtrMatchesPowerLawFormula compares the table-driven
// generator with a plain loop over powerLawLen and the same rng stream.
func TestSparseRowPtrMatchesPowerLawFormula(t *testing.T) {
	for _, n := range []int{1, 7, 100, 333, 1 << 20} {
		for _, seed := range []int64{1, 9001, 21, -5} {
			avg := 16
			if seed == 21 {
				avg = 3
			}
			got := SparseRowPtr(SparsePowerLaw, n, avg, seed)
			rng := rand.New(rand.NewSource(seed))
			want := int32(0)
			for r := 0; r < n; r++ {
				want += int32(powerLawLen(rng.Float64(), float64(avg)/3, n))
				if got[r+1] != want {
					t.Fatalf("n=%d seed=%d avg=%d: row_ptr[%d] = %d, formula gives %d",
						n, seed, avg, r+1, got[r+1], want)
				}
			}
		}
	}
}

func TestSparseRowPtrRejectsInt32Overflow(t *testing.T) {
	// 2^21 banded rows of 2^11 non-zeros pass math.MaxInt32 near row 2^20.
	if rp := SparseRowPtr(SparseBanded, 1<<21, 1<<11, 1); rp != nil {
		t.Fatalf("overflowing row_ptr accepted: last entry %d", rp[len(rp)-1])
	}
	if m := Sparse(SparseBanded, 1<<21, 1<<11, 1); m != nil {
		t.Fatal("Sparse accepted an overflowing matrix")
	}
}

// BenchmarkSparseRowPtr measures row-structure generation at 1M rows; the
// power-law rows resolve through the stack-held lookup table.
func BenchmarkSparseRowPtr(b *testing.B) {
	for _, kind := range []SparseKind{SparsePowerLaw, SparseUniform} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SparseRowPtr(kind, 1<<20, 16, 1)
			}
		})
	}
}
