// Package csf implements the Compressed Sparse Fiber format of Smith &
// Karypis (SPLATT) and its TTMc kernel, used in the paper as the
// general-sparse-tensor baseline (TTMc-SPLATT). A symmetric tensor must be
// fed to CSF with every distinct permutation of every IOU non-zero expanded
// — the N!-fold blow-up that makes SPLATT run out of memory at high orders
// (paper Fig. 5(b)).
package csf

import (
	"fmt"
	"sort"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// Tensor is a CSF tree of depth Order. Level d (0-based; level d holds mode
// d+1's indices in paper notation) stores one node per distinct
// length-(d+1) prefix of the lexicographically sorted non-zero list:
// FIDs[d][n] is the node's index value and Ptr[d][n]..Ptr[d][n+1] its
// children in level d+1 — or, at the leaf level, its run in Values.
type Tensor struct {
	Order  int
	Dim    int
	FIDs   [][]int32
	Ptr    [][]int64
	Values []float64
}

// FromExpanded builds a CSF tree from a flat list of (already expanded, not
// necessarily sorted) non-zeros. idx has length len(vals)*order and is not
// modified. The tree's index storage is charged to guard.
func FromExpanded(order, dim int, idx []int32, vals []float64, guard *memguard.Guard) (*Tensor, error) {
	nnz := len(vals)
	if len(idx) != nnz*order {
		return nil, fmt.Errorf("csf: index length %d != nnz*order %d", len(idx), nnz*order)
	}
	est := treeBytes(order, nnz)
	if err := guard.Reserve(est, "CSF tree"); err != nil {
		return nil, err
	}

	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ta := idx[perm[a]*order : perm[a]*order+order]
		tb := idx[perm[b]*order : perm[b]*order+order]
		for i := 0; i < order; i++ {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})

	t := &Tensor{Order: order, Dim: dim}
	t.Values = make([]float64, nnz)
	for i, p := range perm {
		t.Values[i] = vals[p]
	}
	t.buildLevels(idx, perm)
	return t, nil
}

// buildLevels constructs FIDs and Ptr from the sorted non-zero order.
func (t *Tensor) buildLevels(idx []int32, perm []int) {
	order := t.Order
	nnz := len(perm)
	t.FIDs = make([][]int32, order)
	t.Ptr = make([][]int64, order)

	// prefixStarts[d] lists positions (in sorted order) where a new
	// length-(d+1) prefix begins; each such position is one node.
	prefixStarts := make([][]int, order)
	for d := 0; d < order; d++ {
		var starts []int
		for i := 0; i < nnz; i++ {
			isNew := i == 0
			if !isNew {
				for a := 0; a <= d; a++ {
					if idx[perm[i]*order+a] != idx[perm[i-1]*order+a] {
						isNew = true
						break
					}
				}
			}
			if isNew {
				starts = append(starts, i)
			}
		}
		prefixStarts[d] = starts
	}

	for d := 0; d < order; d++ {
		starts := prefixStarts[d]
		n := len(starts)
		t.FIDs[d] = make([]int32, n)
		t.Ptr[d] = make([]int64, n+1)
		for k, s := range starts {
			t.FIDs[d][k] = idx[perm[s]*order+d]
		}
		if d == order-1 {
			for k, s := range starts {
				t.Ptr[d][k] = int64(s)
			}
			t.Ptr[d][n] = int64(nnz)
		} else {
			// Child c at level d+1 belongs to parent k iff the child's span
			// start lies inside the parent's span. Both lists are sorted,
			// so a single merge pass assigns ranges.
			child := 0
			for k := 0; k < n; k++ {
				t.Ptr[d][k] = int64(child)
				end := nnz
				if k+1 < n {
					end = starts[k+1]
				}
				for child < len(prefixStarts[d+1]) && prefixStarts[d+1][child] < end {
					child++
				}
			}
			t.Ptr[d][n] = int64(len(prefixStarts[d+1]))
		}
	}
}

// FromSymmetric expands every distinct permutation of the IOU non-zeros of
// x and builds the CSF tree, charging the (temporary) expansion and the
// (persistent) tree against the guard exactly as a general sparse framework
// must.
func FromSymmetric(x *spsym.Tensor, guard *memguard.Guard) (*Tensor, error) {
	expanded := x.ExpandedNNZ()
	bytes := expanded*int64(x.Order)*4 + expanded*8
	if bytes < 0 {
		bytes = 1 << 62 // saturated arithmetic upstream
	}
	if err := guard.Reserve(bytes, "permutation expansion"); err != nil {
		return nil, err
	}
	idx, vals := x.ExpandPermutations()
	t, err := FromExpanded(x.Order, x.Dim, idx, vals, guard)
	guard.Release(bytes) // the expansion buffers are temporary
	return t, err
}

// treeBytes is the guard charge of a tree over nnz non-zeros: FIDs+Ptr
// bounded by one (int32+int64) pair per non-zero per level, plus the sort
// permutation and values.
func treeBytes(order, nnz int) int64 {
	return int64(nnz)*int64(order)*12 + int64(nnz)*16
}

// Bytes reports the guard charge FromExpanded made for t. The tree holds it
// for as long as it lives; whoever drops the tree releases it.
func (t *Tensor) Bytes() int64 { return treeBytes(t.Order, t.NNZ()) }

// NNZ returns the stored non-zero count (after expansion).
func (t *Tensor) NNZ() int { return len(t.Values) }

// NumNodes returns the node count at tree level d.
func (t *Tensor) NumNodes(d int) int { return len(t.FIDs[d]) }

// TTMcMode1 computes the mode-1 TTMc, returning the unfolded
// Y(1) = Uᵀ-products over modes 2..N as a dense I x R^{N-1} matrix
// (paper Eq. 2/3). Partial Kronecker products are shared across siblings
// exactly as in SPLATT: the contribution of a subtree rooted at depth d is
// U(i_d,:) ⊗ Σ(children), so each distinct prefix is multiplied once.
// Roots own disjoint output rows, so workers need no synchronization.
//
// The pass runs as an execution-engine plan ("splatt.ttmc"): cfg supplies
// the cancellation context, worker count, and persistent pool, and the
// engine adds context polling (every root: one subtree is the latency
// bound), panic capture, and fault-injection sites.
func (t *Tensor) TTMcMode1(u *linalg.Matrix, guard *memguard.Guard, cfg exec.Config) (*linalg.Matrix, error) {
	if t.Order < 2 {
		return nil, fmt.Errorf("csf: TTMc needs order >= 2, got %d", t.Order)
	}
	if u.Rows != t.Dim {
		return nil, fmt.Errorf("csf: factor has %d rows, tensor dim is %d", u.Rows, t.Dim)
	}
	r := u.Cols
	outCols := dense.Pow64(int64(r), t.Order-1)
	yBytes := memguard.Float64Bytes(int64(t.Dim) * outCols)
	if err := guard.Reserve(yBytes, "dense TTMc output Y(1)"); err != nil {
		return nil, err
	}
	defer guard.Release(yBytes)

	y := linalg.NewMatrix(t.Dim, int(outCols))
	err := exec.Run(cfg, exec.Plan{
		Name:       "splatt.ttmc",
		Items:      len(t.FIDs[0]),
		CheckEvery: 1,
		Scratch: func(w *exec.Worker) error {
			w.Scratch = t.newScratch(r)
			return nil
		},
		Body: func(w *exec.Worker, lo, hi int) error {
			ws := w.Scratch.(*scratch)
			for root := lo; root < hi; root++ {
				if err := w.Tick(root); err != nil {
					return err
				}
				row := y.Row(int(t.FIDs[0][root]))
				for c := t.Ptr[0][root]; c < t.Ptr[0][root+1]; c++ {
					t.accumulate(1, c, u, ws)
					for i, v := range ws.contrib[1] {
						row[i] += v
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// scratch holds per-worker recursion buffers: contrib[d] receives a node's
// contribution (length R^{order-d}) and childSum[d] accumulates the child
// contributions of a depth-d node (length R^{order-d-1}).
type scratch struct {
	contrib  [][]float64
	childSum [][]float64
}

func (t *Tensor) newScratch(r int) *scratch {
	ws := &scratch{
		contrib:  make([][]float64, t.Order),
		childSum: make([][]float64, t.Order),
	}
	for d := 1; d < t.Order; d++ {
		ws.contrib[d] = make([]float64, dense.Pow64(int64(r), t.Order-d))
		ws.childSum[d] = make([]float64, dense.Pow64(int64(r), t.Order-d-1))
	}
	return ws
}

// accumulate fills ws.contrib[d] with the contribution of node at depth d.
func (t *Tensor) accumulate(d int, node int64, u *linalg.Matrix, ws *scratch) {
	r := u.Cols
	urow := u.Row(int(t.FIDs[d][node]))
	out := ws.contrib[d]
	if d == t.Order-1 {
		var x float64
		for p := t.Ptr[d][node]; p < t.Ptr[d][node+1]; p++ {
			x += t.Values[p]
		}
		for j := 0; j < r; j++ {
			out[j] = x * urow[j]
		}
		return
	}
	acc := ws.childSum[d]
	for i := range acc {
		acc[i] = 0
	}
	for c := t.Ptr[d][node]; c < t.Ptr[d][node+1]; c++ {
		t.accumulate(d+1, c, u, ws)
		for i, v := range ws.contrib[d+1] {
			acc[i] += v
		}
	}
	pos := 0
	for j := 0; j < r; j++ {
		uj := urow[j]
		for _, av := range acc {
			out[pos] = uj * av
			pos++
		}
	}
}
