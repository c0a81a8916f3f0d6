// Package workload generates deterministic inputs for the three evaluation
// applications: dense float32 matrices (GEMM), power/temperature grids
// (HotSpot-2D), and sparse matrices in CSR form (CSR-Adaptive SpMV).
//
// The paper's SpMV inputs come from the University of Florida collection;
// that dataset is substituted by synthetic generators spanning the same
// regularity spectrum the CSR-Adaptive algorithm bins for: uniform short
// rows (CSR-Stream territory), power-law rows with a heavy tail
// (CSR-Vector/VectorL territory), and banded matrices (regular HPC stencils).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense returns a rows x cols row-major float32 matrix with deterministic
// pseudo-random entries in [-1, 1).
func Dense(rows, cols int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float32, rows*cols)
	for i := range m {
		m[i] = float32(rng.Float64()*2 - 1)
	}
	return m
}

// Grid holds a HotSpot-2D problem: an n x n temperature field and the
// corresponding dissipated-power field, both row-major.
type Grid struct {
	N     int
	Temp  []float32
	Power []float32
}

// HotSpotGrid returns an n x n thermal problem: ambient-ish temperatures
// with hot spots, and a power map with a few strong sources, the shape of
// Rodinia's HotSpot inputs.
func HotSpotGrid(n int, seed int64) *Grid {
	rng := rand.New(rand.NewSource(seed))
	g := &Grid{
		N:     n,
		Temp:  make([]float32, n*n),
		Power: make([]float32, n*n),
	}
	for i := range g.Temp {
		g.Temp[i] = 323 + float32(rng.Float64())*10 // ~50C ambient
	}
	// A handful of hot functional units.
	for u := 0; u < 8; u++ {
		cx, cy := rng.Intn(n), rng.Intn(n)
		r := n/16 + 1
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := cx+dx, cy+dy
				if x < 0 || y < 0 || x >= n || y >= n {
					continue
				}
				d := math.Hypot(float64(dx), float64(dy))
				if d <= float64(r) {
					g.Power[y*n+x] += float32(2e-4 * (1 - d/float64(r+1)))
				}
			}
		}
	}
	return g
}

// CSR is a sparse matrix in compressed-sparse-row format, the three compact
// vectors of §IV-C: row_ptr, col_id and data.
type CSR struct {
	NRows, NCols int
	RowPtr       []int32 // length NRows+1
	ColIdx       []int32 // length NNZ
	Val          []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of non-zeros in row r.
func (m *CSR) RowNNZ(r int) int { return int(m.RowPtr[r+1] - m.RowPtr[r]) }

// Validate checks CSR structural invariants.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("workload: row_ptr length %d for %d rows", len(m.RowPtr), m.NRows)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("workload: row_ptr[0] = %d", m.RowPtr[0])
	}
	if int(m.RowPtr[m.NRows]) != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("workload: nnz mismatch: row_ptr end %d, col %d, val %d",
			m.RowPtr[m.NRows], len(m.ColIdx), len(m.Val))
	}
	for r := 0; r < m.NRows; r++ {
		if m.RowPtr[r+1] < m.RowPtr[r] {
			return fmt.Errorf("workload: row_ptr decreases at row %d", r)
		}
	}
	for i, c := range m.ColIdx {
		if c < 0 || int(c) >= m.NCols {
			return fmt.Errorf("workload: col_id[%d] = %d outside %d columns", i, c, m.NCols)
		}
	}
	return nil
}

// SparseKind selects a sparse-matrix structure.
type SparseKind int

const (
	// SparseUniform gives every row about the same short length: the
	// regular matrices CSR-Stream handles best.
	SparseUniform SparseKind = iota
	// SparsePowerLaw gives Zipf-distributed row lengths with a heavy tail:
	// the irregular matrices that need CSR-Vector and CSR-VectorL.
	SparsePowerLaw
	// SparseBanded concentrates non-zeros near the diagonal, like
	// discretized PDE operators.
	SparseBanded
)

// String names the kind.
func (k SparseKind) String() string {
	switch k {
	case SparseUniform:
		return "uniform"
	case SparsePowerLaw:
		return "powerlaw"
	case SparseBanded:
		return "banded"
	default:
		return fmt.Sprintf("sparse(%d)", int(k))
	}
}

// SparseRowPtr generates only the row_ptr vector of Sparse(kind, n, avgNNZ,
// seed): the row-length structure without materializing columns and values.
// The out-of-core planner (nnz-adaptive shard splitting, §IV-C) needs
// exactly this much even in phantom (timing-only) runs, where a 16M-row
// matrix's values never exist on the host. It returns nil when the total
// non-zero count would exceed math.MaxInt32, the int32 row_ptr limit.
func SparseRowPtr(kind SparseKind, n, avgNNZ int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	rowPtr := make([]int32, n+1)
	var pl powerLawTable
	if kind == SparsePowerLaw {
		pl.build(avgNNZ, n)
	}
	total := 0
	for r := 0; r < n; r++ {
		total += rowLength(kind, rng, &pl, n, avgNNZ, r)
		if total > math.MaxInt32 {
			return nil
		}
		rowPtr[r+1] = int32(total)
	}
	return rowPtr
}

// rowLength draws one row's non-zero count; power-law rows resolve through
// pl, which build has prepared for (avgNNZ, n).
func rowLength(kind SparseKind, rng *rand.Rand, pl *powerLawTable, n, avgNNZ, row int) int {
	var rowLen int
	switch kind {
	case SparseUniform:
		rowLen = avgNNZ/2 + rng.Intn(avgNNZ+1)
	case SparsePowerLaw:
		return pl.length(rng.Float64())
	case SparseBanded:
		// Banded rows clip at the matrix edges, like the fill loop in Sparse.
		rowLen = max(avgNNZ, 1)
		return min(rowLen, n-max(row-rowLen/2, 0))
	}
	return min(max(rowLen, 1), n)
}

// powerLawExp is the inverse-transform exponent of the power-law rows.
const powerLawExp = -0.55

// powerLawLen is the reference power-law row length for a uniform draw u:
// Zipf-ish via inverse transform, mean scaled by c = avgNNZ/3, clamped to
// [1, n]. It is the single definition; powerLawTable only caches it.
func powerLawLen(u, c float64, n int) int {
	return min(max(int(c*math.Pow(u, powerLawExp)), 1), n)
}

// Power-law lookup table geometry: buckets are indexed by the top
// plOctaves binary octaves of u (u >= 2^-plOctaves) and the top
// plMantBits mantissa bits within an octave.
const (
	plOctaves  = 32
	plMantBits = 6
	plBuckets  = plOctaves << plMantBits
	// plKeyMin is the smallest Float64bits(u)>>(52-plMantBits) in the
	// table: biased exponent 1023-plOctaves, mantissa bits zero.
	plKeyMin = (1023 - plOctaves) << plMantBits
	// plGuard is the relative band around a bucket edge or step threshold
	// inside which the table defers to powerLawLen (see build).
	plGuard = 1e-9
)

// Bucket kinds; the zero value falls back to powerLawLen.
const (
	plFallback uint32 = iota
	plConst           // every u in the bucket gives k
	plStep            // u <= b gives k+1, u > b gives k
)

type plBucket struct {
	b    float64
	k    int32
	kind uint32
}

// powerLawTable resolves powerLawLen(u, c, n) for most u with one lookup
// instead of a math.Pow. It is 32 KB, sized to live on the caller's stack.
type powerLawTable struct {
	c  float64
	n  int
	bk [plBuckets]plBucket
}

// build prepares t for (avgNNZ, n). The formula is decreasing in u, so a
// bucket [lo, hi) spans the lengths between kTop, taken just above hi, and
// kBot, taken just below lo, each widened by plGuard. Equal ends make the
// bucket constant. Ends one apart make a step at b, the u where
// c*u^-0.55 == kBot. Wider buckets fall back.
//
// The result is exact: outside the guard band, the true c*u^-0.55 is at
// least ~5e-10 (relative) away from the integer the bucket settles on,
// while math.Pow errs by ~1e-13 (it takes Exp(-0.45*Log(u)), and
// |0.45 ln u| <= 335 for every float64 keeps that argument's error under
// ~7e-14), so the formula floors to the same integer. Inside
// the band the lookup calls the formula itself. kTop and kBot are already
// clamped to [1, n]; the clamp is monotone, so a hit needs no second one.
func (t *powerLawTable) build(avgNNZ, n int) {
	t.c, t.n, t.bk = float64(avgNNZ)/3, n, [plBuckets]plBucket{}
	if avgNNZ < 1 {
		return // every bucket falls back
	}
	for i := range t.bk {
		lo := math.Float64frombits(uint64(plKeyMin+i) << (52 - plMantBits))
		hi := math.Float64frombits(uint64(plKeyMin+i+1) << (52 - plMantBits))
		kTop := powerLawLen(hi*(1+plGuard), t.c, n)
		kBot := powerLawLen(lo*(1-plGuard), t.c, n)
		switch kBot - kTop {
		case 0:
			t.bk[i] = plBucket{k: int32(kTop), kind: plConst}
		case 1:
			b := math.Pow(float64(kBot)/t.c, 1/powerLawExp)
			t.bk[i] = plBucket{b: b, k: int32(kTop), kind: plStep}
		}
	}
}

// length returns powerLawLen(u, t.c, t.n).
func (t *powerLawTable) length(u float64) int {
	key := int(math.Float64bits(u) >> (52 - plMantBits))
	if key >= plKeyMin && key < plKeyMin+plBuckets {
		switch e := &t.bk[key-plKeyMin]; e.kind {
		case plConst:
			return int(e.k)
		case plStep:
			if math.Abs(u-e.b) > plGuard*e.b {
				if u <= e.b {
					return int(e.k) + 1
				}
				return int(e.k)
			}
		}
	}
	return powerLawLen(u, t.c, t.n)
}

// Sparse generates an n x n CSR matrix with roughly avgNNZ non-zeros per
// row, structured per kind, deterministically from seed. Its row_ptr is
// bit-identical to SparseRowPtr(kind, n, avgNNZ, seed); like it, Sparse
// returns nil when the non-zero count would overflow int32.
func Sparse(kind SparseKind, n, avgNNZ int, seed int64) *CSR {
	rowPtr := SparseRowPtr(kind, n, avgNNZ, seed)
	if rowPtr == nil {
		return nil
	}
	m := &CSR{NRows: n, NCols: n, RowPtr: rowPtr}
	nnz := int(m.RowPtr[n])
	m.ColIdx = make([]int32, 0, nnz)
	m.Val = make([]float32, 0, nnz)
	// Columns and values come from an independent stream so that the row
	// structure alone can be regenerated cheaply.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	cols := make([]int32, 0, avgNNZ)
	for r := 0; r < n; r++ {
		rowLen := int(m.RowPtr[r+1] - m.RowPtr[r])
		cols = cols[:0]
		switch kind {
		case SparseBanded:
			// Use the pre-clip band half-width so edge rows enumerate the
			// same columns the row-length generator counted.
			base := avgNNZ
			if base < 1 {
				base = 1
			}
			half := base / 2
			for c := r - half; len(cols) < rowLen; c++ {
				if c >= 0 && c < n {
					cols = append(cols, int32(c))
				}
				if c >= n {
					break
				}
			}
		default:
			seen := make(map[int32]bool, rowLen)
			for len(cols) < rowLen && len(cols) < n {
				c := int32(rng.Intn(n))
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
			sortInt32(cols)
		}
		for _, c := range cols {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, float32(rng.Float64()*2-1))
		}
	}
	return m
}

// Vector returns a deterministic dense vector of length n.
func Vector(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}

// sortInt32 is insertion sort: rows are short and mostly sorted already.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
