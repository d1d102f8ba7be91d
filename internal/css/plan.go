// Package css implements the Compressed Sparse Symmetric computation
// structure of Shivakumar et al. [11], [12], as used by SymProp: for each
// IOU non-zero, the intermediate K tensors of paper Eq. (5)/(7) form a
// lattice of sub-multisets of the non-zero's index multiset, with
//
//	K[S](j1..jl) = Σ_{distinct v ∈ S} U(v, j_l) · K[S∖v](j1..j_{l-1})
//
// (the distinct-permutation variant; see DESIGN.md §3.2). The lattice gives
// both kinds of CSS memoization: sub-multisets shared between the N
// top-level tensors K[i∖i_n] are computed once ("within permutations"), and
// the lattice *structure* depends only on the multiplicity signature of the
// non-zero — (1,1,...,1) for the typical all-distinct case — so it is built
// once per signature and shared across all non-zeros and all iterations
// ("between non-zeros").
package css

import (
	"fmt"
	"sync"

	"github.com/symprop/symprop/internal/dense"
)

// maxSlots bounds the number of distinct index values in one non-zero;
// equal to the maximum supported order.
const maxSlots = dense.MaxOrder

// Key encodes a sub-multiset as a base-16 count vector: bits [4t, 4t+4)
// hold the multiplicity of distinct-value slot t. Count sums are bounded by
// MaxOrder = 16, so only a single-slot signature can reach a digit of 16,
// where the carry into the (necessarily unused) next slot keeps keys unique.
type Key uint64

// slotKey returns the key with a single count of 1 in slot t.
func slotKey(t int) Key { return Key(1) << (4 * t) }

// Edge is one term of the lattice recursion: multiply the child node's
// tensor by row U(value[Slot], :) along a new last mode.
type Edge struct {
	Slot  int // distinct-value slot supplying the U row
	Child int // node index at the previous level
}

// Node is one sub-multiset at some level of the lattice.
type Node struct {
	Key   Key
	Edges []Edge
}

// Plan is the signature-dependent lattice structure for non-zeros whose
// index multiset has the given multiplicity signature. Levels[l-1] holds
// the nodes of size l for l = 1..Order-1. Tops[t] indexes the level-
// (Order-1) node equal to the full multiset minus one copy of slot t; its
// tensor is K[i∖i_t], the factor of the Y-row update for output row
// value[t] (paper Eq. 4).
type Plan struct {
	Order  int
	Sig    []int
	Levels [][]Node
	Tops   []int
}

// BuildPlan constructs the lattice plan for a multiplicity signature
// (counts of the distinct index values of an IOU tuple, in order of
// appearance). The tuple order is sum(sig) and must be in [2, MaxOrder].
func BuildPlan(sig []int) (*Plan, error) {
	order := 0
	for t, c := range sig {
		if c < 1 {
			return nil, fmt.Errorf("css: signature %v has non-positive count at slot %d", sig, t)
		}
		order += c
	}
	if len(sig) > maxSlots {
		return nil, fmt.Errorf("css: %d distinct values exceeds the maximum %d", len(sig), maxSlots)
	}
	if order < 2 || order > dense.MaxOrder {
		return nil, fmt.Errorf("css: order %d out of range [2,%d]", order, dense.MaxOrder)
	}

	p := &Plan{Order: order, Sig: append([]int(nil), sig...)}
	p.Levels = make([][]Node, order-1)

	// Level 1: one node per slot, no edges (base case K = U row).
	index := make([]map[Key]int, order) // index[l-1] maps key -> node position
	index[0] = make(map[Key]int, len(sig))
	for t := range sig {
		index[0][slotKey(t)] = t
		p.Levels[0] = append(p.Levels[0], Node{Key: slotKey(t)})
	}

	// Levels 2..order-1: expand every level-(l-1) node by every slot with
	// spare multiplicity; record edges by removal.
	for l := 2; l <= order-1; l++ {
		idx := make(map[Key]int)
		index[l-1] = idx
		for _, parent := range p.Levels[l-2] {
			for t := 0; t < len(sig); t++ {
				if count(parent.Key, t, sig) >= sig[t] {
					continue
				}
				k := parent.Key + slotKey(t)
				if _, dup := idx[k]; dup {
					continue
				}
				idx[k] = len(p.Levels[l-1])
				p.Levels[l-1] = append(p.Levels[l-1], Node{Key: k})
			}
		}
		// Edges: node S gets one edge per distinct slot present in S.
		for n := range p.Levels[l-1] {
			node := &p.Levels[l-1][n]
			for t := 0; t < len(sig); t++ {
				if count(node.Key, t, sig) == 0 {
					continue
				}
				child, ok := index[l-2][node.Key-slotKey(t)]
				if !ok {
					return nil, fmt.Errorf("css: internal error: missing child of %x at level %d", node.Key, l)
				}
				node.Edges = append(node.Edges, Edge{Slot: t, Child: child})
			}
		}
	}

	// Tops: full multiset minus one of each slot, located at level order-1.
	full := Key(0)
	for t, c := range sig {
		full += Key(c) << (4 * t)
	}
	p.Tops = make([]int, len(sig))
	for t := range sig {
		n, ok := index[order-2][full-slotKey(t)]
		if !ok {
			return nil, fmt.Errorf("css: internal error: missing top for slot %d", t)
		}
		p.Tops[t] = n
	}
	return p, nil
}

// count decodes the multiplicity of slot t in key k. The single-slot
// order-16 signature is the only case where a digit can exceed 15; decode
// it by bounding with the signature.
func count(k Key, t int, sig []int) int {
	c := int((k >> (4 * t)) & 0xF)
	if len(sig) == 1 && t == 0 {
		// Digit may have carried (count 16 encodes as 0x10).
		c = int(k)
	}
	return c
}

// NumNodes returns the total node count across all levels.
func (p *Plan) NumNodes() int {
	n := 0
	for _, lvl := range p.Levels {
		n += len(lvl)
	}
	return n
}

// CompactFlops returns the floating-point operation count of evaluating
// this plan with compact (IOU-only) K storage at rank r: each edge of a
// level-l node costs 2·S_{l,r} (one multiply + one add per stored entry),
// the SymProp cost of paper Eq. (9).
func (p *Plan) CompactFlops(r int) int64 {
	var flops int64
	for li, lvl := range p.Levels[1:] {
		l := li + 2
		per := 2 * dense.Count(l, r)
		for _, node := range lvl {
			flops += per * int64(len(node.Edges))
		}
	}
	return flops
}

// FullFlops returns the operation count with full R^l K storage — the CSS
// baseline cost c_css of paper §III-D.
func (p *Plan) FullFlops(r int) int64 {
	var flops int64
	for li, lvl := range p.Levels[1:] {
		l := li + 2
		per := 2 * dense.Pow64(int64(r), l)
		for _, node := range lvl {
			flops += per * int64(len(node.Edges))
		}
	}
	return flops
}

// Signature extracts the multiplicity signature and distinct values of a
// sorted IOU tuple: values[t] is the t-th distinct value, sig[t] its count.
// The two output slices must have capacity >= len(tuple); the returned
// slices alias them.
func Signature(tuple []int32, values []int32, sig []int) ([]int32, []int) {
	values = values[:0]
	sig = sig[:0]
	for i, v := range tuple {
		if i > 0 && v == tuple[i-1] {
			sig[len(sig)-1]++
			continue
		}
		values = append(values, v)
		sig = append(sig, 1)
	}
	return values, sig
}

// Cache memoizes plans by signature. The zero value is ready to use and
// safe for concurrent readers/writers.
type Cache struct {
	mu    sync.RWMutex
	plans map[Key]*Plan
}

// sigKey packs a signature into a Key (counts are ordered, so this is
// injective for signatures of total <= 16).
func sigKey(sig []int) Key {
	k := Key(0)
	for t, c := range sig {
		k += Key(c) << (4 * t)
	}
	return k
}

// Get returns the memoized plan for sig, building it on first use.
func (c *Cache) Get(sig []int) (*Plan, error) {
	k := sigKey(sig)
	c.mu.RLock()
	p := c.plans[k]
	c.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	p, err := BuildPlan(sig)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.plans == nil {
		c.plans = make(map[Key]*Plan)
	}
	if prev, ok := c.plans[k]; ok {
		p = prev
	} else {
		c.plans[k] = p
	}
	c.mu.Unlock()
	return p, nil
}

// Len reports how many distinct signatures have been planned.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}
