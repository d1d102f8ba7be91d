package kernels

import (
	"fmt"

	"github.com/symprop/symprop/internal/csf"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

// SPLATT wraps the CSF-based general sparse TTMc baseline. Construction
// expands every distinct permutation of the symmetric tensor's IOU
// non-zeros (the cost a symmetry-oblivious framework must pay); the TTMc
// method can then be timed separately from format construction, matching
// the paper's methodology of benchmarking the operation alone.
type SPLATT struct {
	tree  *csf.Tensor
	guard *memguard.Guard
}

// NewSPLATT builds the CSF tree for x, charging the permutation expansion
// and tree storage to the guard. Mirroring the paper's footnote 2, input is
// read directly from the IOU set (the expansion happens in memory, not by
// parsing an expanded file).
func NewSPLATT(x *spsym.Tensor, guard *memguard.Guard) (*SPLATT, error) {
	if x.Order < 2 {
		return nil, fmt.Errorf("kernels: SPLATT baseline requires order >= 2, got %d", x.Order)
	}
	tree, err := csf.FromSymmetric(x, guard)
	if err != nil {
		return nil, err
	}
	return &SPLATT{tree: tree, guard: guard}, nil
}

// TTMc runs the mode-1 TTMc over the CSF tree under the execution engine
// (cancellation, panic capture, fault sites — the "splatt.ttmc" plan),
// producing the full unfolded Y(1) of shape I x R^{N-1}.
func (s *SPLATT) TTMc(u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	y, err := s.tree.TTMcMode1(u, s.guard, opts.execConfig())
	if err != nil {
		return nil, err
	}
	if err := exec.FireOutput("splatt", y); err != nil {
		return nil, err
	}
	return y, nil
}

// ExpandedNNZ reports the stored (expanded) non-zero count.
func (s *SPLATT) ExpandedNNZ() int { return s.tree.NNZ() }

// Release returns the CSF tree's charge to the guard it was built under.
// s must not be used afterwards.
func (s *SPLATT) Release() { s.guard.Release(s.tree.Bytes()) }

// TTMcSPLATT is the one-shot convenience wrapper: build + run. The tree is
// dropped on return, so its guard charge is released on every path.
func TTMcSPLATT(x *spsym.Tensor, u *linalg.Matrix, opts Options) (*linalg.Matrix, error) {
	s, err := NewSPLATT(x, opts.Guard)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.TTMc(u, opts)
}
