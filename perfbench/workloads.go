package main

import (
	"sort"

	"github.com/symprop/symprop/internal/hypergraph"
	"github.com/symprop/symprop/internal/spsym"
)

// workloads each stress a different layer; README.md records the measured
// layer shares behind each choice.
var workloads = map[string]workload{
	"hoqri-fused": {why: "all-distinct order-5 rank-8 non-zeros take the fused evaluators; S³TTMc dominates; traced run adds served jobs",
		algo: "hoqri", rank: 8, sweeps: 10, build: fusedTensor, cssCheck: true, dominant: "kernels", serveJobs: true},
	"hoqri-walmart": {why: "order-8 rank-10 padded hypergraph is off the fused grid: lattice interpreter, dense loops, TC GEMMs",
		algo: "hoqri", rank: 10, sweeps: 5, build: walmartTensor, dominant: "kernels"},
	"hooi-contact": {why: "HOOI's full-unfolding expand, I×I Gram and eigensolver dominate; the only HOOI driver workload",
		algo: "hooi", rank: 12, sweeps: 5, build: contactTensor, dominant: "linalg"},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fusedTensor is a uniform-random order-5 tensor with all-distinct indices.
func fusedTensor(seed int64) (*spsym.Tensor, error) {
	return spsym.Random(spsym.RandomOptions{Order: 5, Dim: 300, NNZ: 20_000, Seed: seed, ForbidRepeats: true})
}

// walmartTensor is a scaled walmart-trips stand-in: a planted hypergraph
// padded with a dummy node, so indices repeat.
func walmartTensor(seed int64) (*spsym.Tensor, error) {
	spec, err := hypergraph.Lookup("walmart-trips")
	if err != nil {
		return nil, err
	}
	spec.Dim, spec.UNNZ = 1000, 400
	return spec.GenerateTensor(seed)
}

// contactTensor is a contact-school stand-in at its full dimension.
func contactTensor(seed int64) (*spsym.Tensor, error) {
	spec, err := hypergraph.Lookup("contact-school")
	if err != nil {
		return nil, err
	}
	spec.UNNZ = 3000
	return spec.GenerateTensor(seed)
}
