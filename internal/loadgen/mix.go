package loadgen

// The job mix: a weighted set of decomposition job shapes
// (order/dim/nnz/rank buckets) and the deterministic open-loop schedule
// derived from it. Everything downstream of a (mix, rate, duration, seed)
// tuple is reproducible: the same tuple yields byte-for-byte the same
// submission schedule — arrival offsets, shape picks, per-job seeds —
// which is what makes two load runs on different builds comparable.

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"github.com/symprop/symprop/internal/spsym"
)

// Shape is one bucket of the job mix: the tensor geometry plus the
// decomposition parameters every job of this shape is submitted with.
type Shape struct {
	// Name labels the shape in reports ("small", "wide", ...).
	Name string
	// Order/Dim/NNZ size the random symmetric tensor; a single tensor per
	// shape is generated at Prepare time and reused across submissions
	// (the server copies it into its spool either way).
	Order, Dim, NNZ int
	// Rank, MaxIters, Workers fill the job spec. Workers 0 takes the
	// server default.
	Rank, MaxIters, Workers int
	// Deprecated: ignored. The server runs every job on one engine, so
	// the field fills nothing.
	Shards int
	// Weight is the shape's relative frequency in the mix (≥ 1).
	Weight int
}

// Mix is a weighted shape set.
type Mix struct {
	Shapes []Shape
}

// DefaultMix models mixed user traffic: mostly small interactive jobs,
// some medium, a few heavier ones — the "millions of users" profile at
// laptop scale.
func DefaultMix() *Mix {
	return &Mix{Shapes: []Shape{
		{Name: "small", Order: 3, Dim: 24, NNZ: 120, Rank: 3, MaxIters: 6, Weight: 6},
		{Name: "medium", Order: 3, Dim: 48, NNZ: 600, Rank: 4, MaxIters: 8, Weight: 3},
		{Name: "large", Order: 4, Dim: 24, NNZ: 400, Rank: 4, MaxIters: 8, Weight: 1},
	}}
}

// SmokeMix is the CI profile: shapes small enough that a few seconds of
// low-rate traffic completes tens of jobs on two runners.
func SmokeMix() *Mix {
	return &Mix{Shapes: []Shape{
		{Name: "tiny", Order: 3, Dim: 10, NNZ: 40, Rank: 2, MaxIters: 4, Weight: 3},
		{Name: "small", Order: 3, Dim: 16, NNZ: 90, Rank: 3, MaxIters: 5, Weight: 1},
	}}
}

// MixByName resolves the named built-in mix.
func MixByName(name string) (*Mix, error) {
	switch name {
	case "", "default":
		return DefaultMix(), nil
	case "smoke":
		return SmokeMix(), nil
	}
	return nil, fmt.Errorf("loadgen: unknown mix %q (want default or smoke)", name)
}

// Validate checks the mix is usable.
func (m *Mix) Validate() error {
	if m == nil || len(m.Shapes) == 0 {
		return fmt.Errorf("loadgen: empty mix")
	}
	for i, s := range m.Shapes {
		if s.Order < 2 || s.Dim < 2 || s.NNZ < 1 || s.Rank < 1 || s.Rank > s.Dim || s.Weight < 1 {
			return fmt.Errorf("loadgen: shape %d (%s) invalid: %+v", i, s.Name, s)
		}
	}
	return nil
}

// Arrival is one scheduled submission: an offset from the run start, the
// shape to submit, and the job's decomposition seed.
type Arrival struct {
	At    time.Duration
	Shape int
	Seed  int64
}

// Schedule derives the open-loop submission schedule: Poisson arrivals at
// the target rate (exponential inter-arrival times) over the duration,
// each with a weighted shape pick and a per-job seed, all from one seeded
// generator. Deterministic: equal (mix, rate, d, seed) tuples produce
// equal schedules.
func (m *Mix) Schedule(rate float64, d time.Duration, seed int64) ([]Arrival, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 || d <= 0 {
		return nil, fmt.Errorf("loadgen: rate %g, duration %s (want > 0)", rate, d)
	}
	total := 0
	for _, s := range m.Shapes {
		total += s.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Arrival
	at := time.Duration(0)
	for {
		// Exponential inter-arrival: open-loop Poisson traffic.
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out, nil
		}
		pick := rng.Intn(total)
		shape := 0
		for i, s := range m.Shapes {
			if pick < s.Weight {
				shape = i
				break
			}
			pick -= s.Weight
		}
		out = append(out, Arrival{At: at, Shape: shape, Seed: rng.Int63()})
	}
}

// EncodeSchedule writes the schedule in a canonical one-line-per-arrival
// text form. The determinism test compares two encodings byte-for-byte;
// it is also handy for diffing two runs' inputs.
func EncodeSchedule(w io.Writer, arrivals []Arrival) error {
	for i, a := range arrivals {
		if _, err := fmt.Fprintf(w, "%d %d %d %d\n", i, a.At.Nanoseconds(), a.Shape, a.Seed); err != nil {
			return err
		}
	}
	return nil
}

// Tensors materializes one tensor per shape in the canonical text form
// job specs carry inline. Seeded per shape off the schedule seed so the
// submitted data is as reproducible as the schedule.
func (m *Mix) Tensors(seed int64) ([]string, error) {
	out := make([]string, len(m.Shapes))
	for i, s := range m.Shapes {
		x, err := spsym.Random(spsym.RandomOptions{
			Order: s.Order, Dim: s.Dim, NNZ: s.NNZ, Seed: seed + int64(i)*7919,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: shape %s tensor: %w", s.Name, err)
		}
		var b strings.Builder
		if err := x.Write(&b); err != nil {
			return nil, err
		}
		out[i] = b.String()
	}
	return out, nil
}
