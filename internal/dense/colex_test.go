package dense

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// colexLess orders IOU tuples colexicographically: last index first.
func colexLess(a, b []int) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ColexRank must number the tuples 0..Count-1 in colex order, for every
// order and dimension size.
func TestColexRankMatchesColexOrder(t *testing.T) {
	for order := 1; order <= 8; order++ {
		for dim := 1; dim <= 6; dim++ {
			tuples := collect(ForEachIOU, order, dim)
			sort.Slice(tuples, func(a, b int) bool { return colexLess(tuples[a], tuples[b]) })
			for pos, tup := range tuples {
				if got := ColexRank(tup); got != int64(pos) {
					t.Fatalf("order=%d dim=%d: ColexRank(%v) = %d, want %d", order, dim, tup, got, pos)
				}
			}
		}
	}
}

// Block j of the order-l colex layout starts at Count(l, j), holds
// Count(l-1, j+1) entries, and its k-th entry's prefix is entry k of the
// order-(l-1) colex layout: the identity ColexNode's axpys rest on.
func TestColexBlocksArePrefixesOfChild(t *testing.T) {
	for order := 1; order <= 8; order++ {
		for dim := 1; dim <= 6; dim++ {
			off := ColexOffsets(order, dim)
			if len(off) != dim+1 || off[0] != 0 || int64(off[dim]) != Count(order, dim) {
				t.Fatalf("order=%d dim=%d: offsets %v", order, dim, off)
			}
			for j := 0; j < dim; j++ {
				if got, want := int64(off[j+1]-off[j]), Count(order-1, j+1); got != want {
					t.Fatalf("order=%d dim=%d: block %d holds %d entries, want %d", order, dim, j, got, want)
				}
			}
			ForEachIOU(order, dim, func(idx []int) {
				j := idx[order-1]
				pos := ColexRank(idx) - int64(off[j])
				if pos < 0 || pos >= int64(off[j+1]-off[j]) {
					t.Fatalf("order=%d dim=%d: %v lies outside block %d", order, dim, idx, j)
				}
				if prefix := ColexRank(idx[:order-1]); prefix != pos {
					t.Fatalf("order=%d dim=%d: %v sits at %d in block %d, its prefix at %d in the child", order, dim, idx, pos, j, prefix)
				}
			})
		}
	}
}

// toColex scatters a lex buffer into colex order with the gather table.
func toColex(lex []float64, g []int32) []float64 {
	out := make([]float64, len(lex))
	for i, c := range g {
		out[c] = lex[i]
	}
	return out
}

// The gather table is a permutation whose entry i is the colex rank of
// the i-th lex tuple, and GatherLex undoes the lex→colex scatter exactly.
func TestColexGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for order := 1; order <= 8; order++ {
		for _, dim := range []int{1, 2, 5, 7} {
			g := ColexGather(order, dim)
			if int64(len(g)) != Count(order, dim) {
				t.Fatalf("order=%d dim=%d: gather has %d entries, want %d", order, dim, len(g), Count(order, dim))
			}
			i := 0
			ForEachIOU(order, dim, func(idx []int) {
				if got := int64(g[i]); got != ColexRank(idx) {
					t.Fatalf("order=%d dim=%d: gather[%d] = %d, want ColexRank(%v) = %d", order, dim, i, got, idx, ColexRank(idx))
				}
				i++
			})
			lex := make([]float64, len(g))
			for k := range lex {
				lex[k] = rng.NormFloat64()
			}
			colex := toColex(lex, g)
			back := make([]float64, len(g))
			GatherLex(back, colex, g)
			for k := range lex {
				if math.Float64bits(back[k]) != math.Float64bits(lex[k]) {
					t.Fatalf("order=%d dim=%d: round trip changed entry %d", order, dim, k)
				}
			}
		}
	}
}

// signedValues draws standard-normal values with about a third replaced
// by exact zeros, half of those negative, so products of -0 reach the
// first edge of a block.
func signedValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// ColexNode must give every entry the bits of clearing the node and adding
// one lexicographic OuterAccum per edge in edge order, for one to nine
// edges (one, two and three passes) on inputs with exact zeros of both
// signs and negative values.
func TestColexNodeMatchesOuterAccumBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for order := 2; order <= 8; order++ {
		for _, dim := range []int{1, 3, 6} {
			gSrc := ColexGather(order-1, dim)
			gDst := ColexGather(order, dim)
			off := ColexOffsets(order, dim)
			for edges := 1; edges <= 9; edges++ {
				want := make([]float64, Count(order, dim))
				srcs := make([][]float64, edges)
				us := make([][]float64, edges)
				for e := range srcs {
					lex := signedValues(rng, len(gSrc))
					us[e] = signedValues(rng, dim)
					OuterAccum(order, want, lex, us[e], dim)
					srcs[e] = toColex(lex, gSrc)
				}
				dst := make([]float64, len(want))
				for k := range dst {
					dst[k] = math.NaN() // ColexNode must overwrite every entry
				}
				ColexNode(dst, off, srcs, us)
				got := make([]float64, len(want))
				GatherLex(got, dst, gDst)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("order=%d dim=%d edges=%d: entry %d is %v (%#x), want %v (%#x)",
							order, dim, edges, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			}
		}
	}
}
