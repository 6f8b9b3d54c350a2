package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedRegeneratesInputs(t *testing.T) {
	cells, err := curveCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != curvePass {
		t.Fatalf("a model-curves pass has %d curves, want %d", len(cells), curvePass)
	}
	for seq := 0; seq < 60; seq++ {
		if a, b := curveSpec(cells, 7, seq), curveSpec(cells, 7, seq); !reflect.DeepEqual(a, b) {
			t.Fatalf("curve %d: %+v then %+v", seq, a, b)
		}
		pa, wa, ga := fleetRequest(7, seq)
		pb, wb, gb := fleetRequest(7, seq)
		if pa != pb || wa != wb || !reflect.DeepEqual(ga, gb) {
			t.Fatalf("fleet request %d differs between generations", seq)
		}
	}
	a, err := simPaperCells(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := simPaperCells(7, 2)
	if len(a) != simPaperPass || !reflect.DeepEqual(a, b) {
		t.Fatalf("sim-paper cells: %d, regenerated equal %v", len(a), reflect.DeepEqual(a, b))
	}
	pa, err := planSpecs(7)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := planSpecs(7)
	if len(pa) != planRounds*(len(planBuiltins())+1) || !reflect.DeepEqual(pa, pb) {
		t.Fatalf("plan-search specs: %d, regenerated equal %v", len(pa), reflect.DeepEqual(pa, pb))
	}
}

func TestDifferentSeedChangesInputs(t *testing.T) {
	cells, _ := curveCells()
	if reflect.DeepEqual(curveSpec(cells, 1, 0).Loads, curveSpec(cells, 2, 0).Loads) {
		t.Error("model-curves loads do not depend on the seed")
	}
	_, _, g1 := fleetRequest(1, 3)
	_, _, g2 := fleetRequest(2, 3)
	if reflect.DeepEqual(g1.Loads, g2.Loads) {
		t.Error("fleet-mixed grids do not depend on the seed")
	}
	s1, _ := simPaperCells(1, 0)
	s2, _ := simPaperCells(2, 0)
	if s1[0].Budget.Seed == s2[0].Budget.Seed {
		t.Error("sim-paper budget seed does not depend on the seed")
	}
	p1, _ := planSpecs(1)
	p2, _ := planSpecs(2)
	for i := range p1 {
		if p1[i].Budget.Seed == p2[i].Budget.Seed {
			t.Errorf("plan-search %s certification seed does not depend on the seed", p1[i].Name)
		}
	}
}

func TestTracedHalfContinuesAfterUntraced(t *testing.T) {
	samples, _ := closedLoop(1, 6, 12, 12, 0, func(seq int) sample { return sample{} })
	if len(samples) != 12 || samples[0].seq != 12 || samples[11].seq != 23 {
		t.Fatalf("a loop from request 12 ran %d requests, %d..%d", len(samples), samples[0].seq, samples[len(samples)-1].seq)
	}
	// fleet-mixed requests from there on carry grids no earlier request
	// stored, on every client path.
	seen := make(map[string]bool)
	for seq := 0; seq < 12; seq++ {
		_, _, spec := fleetRequest(3, seq)
		seen[spec.Name] = true
	}
	for seq := 12; seq < 24; seq++ {
		if _, warm, spec := fleetRequest(3, seq); !warm && seen[spec.Name] {
			t.Fatalf("request %d repeats new grid %s of the untraced half", seq, spec.Name)
		}
	}
}

func TestTraceOverheadComparesLikeWithLike(t *testing.T) {
	var untraced, traced []sample
	for i := 0; i < 10; i++ {
		// Untraced: cold 10 ms, warm 2 ms; traced: both 10% slower, and
		// only one in five traced requests cold.
		untraced = append(untraced, sample{cold: i%2 == 0, lat: map[bool]time.Duration{true: 10e6, false: 2e6}[i%2 == 0]})
		traced = append(traced, sample{cold: i%5 == 0, top: map[bool]time.Duration{true: 11e6, false: 2.2e6}[i%5 == 0]})
	}
	if got := traceOverhead(untraced, traced); got < 10-1e-9 || got > 10+1e-9 {
		t.Errorf("overhead = %v%%, want 10%%", got)
	}
	traced = traced[1:5] // warm only
	if got := traceOverhead(untraced, traced); got < 10-1e-9 || got > 10+1e-9 {
		t.Errorf("warm-only overhead = %v%%, want 10%%", got)
	}
}

func TestInputPassesAlternateNewAndRepeated(t *testing.T) {
	cells, _ := curveCells()
	n := len(cells)
	for seq := 0; seq < 6*n; seq++ {
		pass, fresh := inputPass(seq, n)
		if want := (seq/n)%2 == 0; fresh != want {
			t.Fatalf("request %d fresh=%v, want %v", seq, fresh, want)
		}
		if !fresh && !reflect.DeepEqual(curveSpec(cells, 4, seq), curveSpec(cells, 4, seq-n)) {
			t.Fatalf("request %d (pass %d) does not repeat request %d", seq, pass, seq-n)
		}
		if fresh && seq >= 2*n && reflect.DeepEqual(curveSpec(cells, 4, seq), curveSpec(cells, 4, seq-2*n)) {
			t.Fatalf("request %d repeats an earlier pass's curve", seq)
		}
	}
	if a, b := budgetSeed(4, 0), budgetSeed(4, 2); a == b {
		t.Error("sim-paper passes share a budget seed")
	}
}

func TestFleetRequestsAlternateWarmAndNew(t *testing.T) {
	seen := make(map[string]bool)
	for seq := 0; seq < 4*len(fleetPaths)*fleetWarmGrids; seq++ {
		path, warm, spec := fleetRequest(3, seq)
		if path != fleetPaths[seq%len(fleetPaths)] {
			t.Fatalf("request %d takes path %s", seq, path)
		}
		if want := (seq/len(fleetPaths))%2 == 0; warm != want {
			t.Fatalf("request %d warm=%v, want %v", seq, warm, want)
		}
		if !warm {
			if seen[spec.Name] {
				t.Fatalf("request %d repeats new grid %s", seq, spec.Name)
			}
			seen[spec.Name] = true
		}
	}
}

func TestFracsAreDistinctIncreasingAndInRange(t *testing.T) {
	r := rngFor(5, "test", 0)
	for i := 0; i < 100; i++ {
		fs := fracs(r, 8, 0, 0.9)
		for j, f := range fs {
			if f <= 0 || f > 0.9 || (j > 0 && f <= fs[j-1]) {
				t.Fatalf("fracs %v", fs)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted with nine beyond it")
	}
}

func TestErrorRate(t *testing.T) {
	if r, err := errorRate(0, 10); err != nil || r != 0 {
		t.Errorf("errorRate(0, 10) = %v, %v", r, err)
	}
	if r, err := errorRate(3, 12); err != nil || r != 0.25 {
		t.Errorf("errorRate(3, 12) = %v, %v", r, err)
	}
	if _, err := errorRate(0, 0); err == nil {
		t.Error("errorRate accepted nothing attempted")
	}
	if _, err := errorRate(5, 4); err == nil {
		t.Error("errorRate accepted more failures than attempts")
	}
}

func TestEndToEndCountsFailuresAsMissingLatency(t *testing.T) {
	var m measured
	for i := 0; i < 100; i++ {
		s := sample{seq: i, lat: time.Duration(i+1) * time.Millisecond, cells: 2, cold: i < 10}
		if i == 50 {
			s.err = errors.New("refused")
		}
		m.samples = append(m.samples, s)
	}
	m.window = time.Second
	m.allocBytes = 198 * 1024
	out, failed, err := endToEnd(m, []float64{0.3, 0.1, 0.2}, verdict{mape: 4, pairs: 3}, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	want := map[string]float64{
		"setup_s":           0.2,
		"cells_per_s":       198,
		"req_ms_p50":        51, // the failure sorts last
		"req_ms_p90":        91,
		"cold_req_ms_p50":   5.5,
		"alloc_kb_per_cell": 1,
		"success_rate":      0.99,
		"model_sim_mape":    4,
	}
	for name, v := range want {
		if got := out[name].Value; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	names := make([]string, 0, len(out))
	for n, m := range out {
		names = append(names, n)
		if m.Unit != endToEndUnits[n] {
			t.Errorf("%s unit %q, want %q", n, m.Unit, endToEndUnits[n])
		}
	}
	if len(names) != len(endToEndUnits) {
		t.Errorf("endToEnd printed %v, want the %d of endToEndUnits", names, len(endToEndUnits))
	}
}

func TestSelfTimeMergesConcurrentChildren(t *testing.T) {
	ix := indexSpans([]span{
		{ID: 1, Name: "bench.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.remote", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "store.get", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "store.get", Start: 30, End: 50},
		{ID: 5, Parent: 2, Name: "store.put", Start: 70, End: 80},
	})
	if got := ix.self(1); got != 20 {
		t.Errorf("request self = %d, want 20", got)
	}
	if got := ix.self(2); got != 40 {
		t.Errorf("client self = %d, want 80-30-10 = 40", got)
	}
	self := ix.selfPerRequest()
	if self["store"] != 50e-6 {
		t.Errorf("store self per request = %v ms, want 50 ns", self["store"])
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's names in step
// with what the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var wls, harness []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	for _, w := range workloads {
		harness = append(harness, w.name)
	}
	if !reflect.DeepEqual(wls, harness) {
		t.Errorf("workloads %v, harness runs %v", wls, harness)
	}
	check := func(what string, listed []struct{ Name, Unit string }, printed map[string]string) {
		got := make(map[string]string)
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, printed) {
			var missing []string
			for n, u := range printed {
				if got[n] != u {
					missing = append(missing, n)
				}
			}
			for n := range got {
				if _, ok := printed[n]; !ok {
					missing = append(missing, n)
				}
			}
			sort.Strings(missing)
			t.Errorf("%s metrics out of step with the harness: %v", what, missing)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndUnits)
	perLayer := make(map[string]string)
	for name, m := range layerMetrics(indexSpans(nil), nil, nil, 0) {
		perLayer[name] = m.Unit
	}
	check("per_layer", bj.PerLayer, perLayer)
}
