package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/loadgen"
	"github.com/symprop/symprop/internal/spsym"
)

// TestSeedDeterminism checks that a seed fixes every input byte for byte and
// that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int64) ([]byte, error)
	}{
		{"hoqri-fused", tensorBytes(fusedTensor)},
		{"hoqri-walmart", tensorBytes(walmartTensor)},
		{"hooi-contact", tensorBytes(contactTensor)},
		{"served-jobs", scheduleBytes},
	} {
		a, err := tc.build(7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := tc.build(7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := tc.build(8)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two builds", tc.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", tc.name)
		}
	}
}

func tensorBytes(build func(int64) (*spsym.Tensor, error)) func(int64) ([]byte, error) {
	return func(seed int64) ([]byte, error) {
		x, err := build(seed)
		if err != nil {
			return nil, err
		}
		return encodeTensor(x)
	}
}

// scheduleBytes encodes the served-jobs arrival schedule and tensors.
func scheduleBytes(seed int64) ([]byte, error) {
	arrivals, tensors, err := serveSchedule(seed, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := loadgen.EncodeSchedule(&b, arrivals); err != nil {
		return nil, err
	}
	b.WriteString(strings.Join(tensors, ""))
	return b.Bytes(), nil
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, info := range spanInfo {
		if !seen[info.metric] {
			t.Errorf("span metric %q is not catalogued", info.metric)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json why %q, program %q (known %v)", w.Name, w.Why, got.why, ok)
		}
	}
}

// TestReconcileIdentity checks Σ children + unattributed = wall per root.
func TestReconcileIdentity(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("job", 1, 0, at(0), at(10))
	tr.add("jobs.submit", 1, root, at(0), at(2))
	tr.add("jobs.run", 1, root, at(3), at(9))
	r := tr.reconcile("job")
	if r.wall[0] != 10 || r.layers[0] != 8 || r.unattributed[0] != 2 {
		t.Fatalf("wall %v layers %v unattributed %v, want 10, 8, 2", r.wall, r.layers, r.unattributed)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
}
