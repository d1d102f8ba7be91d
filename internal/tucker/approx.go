package tucker

import (
	"github.com/symprop/symprop/internal/dense"
)

// EvalApprox evaluates one entry of the Tucker approximation
// X̂ = C ×₁ Uᵀ … ×_N Uᵀ at the given index tuple by brute force over the
// R^N core entries. Cost is O(N·R^N) per call — intended for validation
// and small examples, not production reconstruction.
func (r *Result) EvalApprox(idx []int) float64 {
	n := len(idx)
	rank := r.U.Cols
	digits := make([]int, n-1)
	var sum float64
	// Loop over r1 (the non-symmetric core mode) and the full columns of
	// the compact core unfolding.
	for lin, col := range dense.ExpansionTable(n-1, rank) {
		rem := lin
		for a := n - 2; a >= 0; a-- {
			digits[a] = rem % rank
			rem /= rank
		}
		// Product over the symmetric modes.
		var uprod float64 = 1
		for a := 0; a < n-1; a++ {
			uprod *= r.U.At(idx[a+1], digits[a])
		}
		if uprod == 0 {
			continue
		}
		for r1 := 0; r1 < rank; r1++ {
			sum += r.CoreP.At(r1, int(col)) * r.U.At(idx[0], r1) * uprod
		}
	}
	return sum
}

// CoreFull expands the compact core unfolding into the full dense core
// tensor C, returned row-major over (r1, ..., rN) with the last index
// fastest — R^N entries, so intended for small ranks and inspection.
func (r *Result) CoreFull() []float64 {
	rank := r.U.Cols
	n := 0
	// Recover the order from the compact column count: Cols = C(N-1+rank-1, N-1).
	for try := 1; try <= dense.MaxOrder; try++ {
		if dense.Count(try-1, rank) == int64(r.CoreP.Cols) {
			n = try
			break
		}
	}
	if n == 0 {
		return nil
	}
	table := dense.ExpansionTable(n-1, rank)
	out := make([]float64, 0, rank*len(table))
	for r1 := 0; r1 < rank; r1++ {
		row := r.CoreP.Row(r1)
		for _, col := range table {
			out = append(out, row[col])
		}
	}
	return out
}
