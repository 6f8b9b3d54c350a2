package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	seq int
	// kind classes the request: topology family, client path or builtin.
	kind string
	// cold marks a request on new inputs: a grid not yet stored on
	// fleet-mixed, a pass of new inputs elsewhere (see README.md).
	cold  bool
	lat   time.Duration
	cells int
	err   error
	// out is what the correctness checks read.
	out any
	// top is the traced run's span of the same top-level call the
	// untraced run times.
	top time.Duration
}

// instance is one set-up workload.
type instance interface {
	// request runs request seq the way a user of the system would.
	request(ctx context.Context, seq int) sample
	// traced runs request seq's top-level call and then replays its
	// inputs through each layer's exported functions, one span per call.
	traced(ctx context.Context, tr *tracer, seq int) sample
	// verify checks the outputs of a run; an error fails the run.
	verify(ctx context.Context, samples []sample) (verdict, error)
	// layers returns the workload's own per-layer figures (counts and
	// ratios the spans alone do not carry).
	layers(ix *spanIndex, samples []sample) map[string]float64
	close()
}

// verdict is what verify found, for the report.
type verdict struct {
	// mape is model_sim_mape in percent, over pairs cells.
	mape  float64
	pairs int
	notes map[string]any
}

type workload struct {
	name    string
	clients int
	// passLen is the number of requests after which the inputs repeat;
	// runs end on a pass boundary so every run carries the same mix.
	passLen int
	// prepare, when set, runs once before set-up is timed.
	prepare func(ctx context.Context, cfg config) error
	setup   func(ctx context.Context, cfg config) (instance, error)
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	workdir string
}

// minRequests makes ten samples lie beyond p90.
const minRequests = 100

// Set-up is timed at least minSetups times, and more while the total
// stays under setupBudget, so a set-up of a few milliseconds is the
// median of enough runs to be steady; setup_s is that median.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = 500 * time.Millisecond
)

// timedSetup sets the workload up repeatedly, keeping the last instance.
func timedSetup(ctx context.Context, w workload, cfg config) (instance, []float64, error) {
	var times []float64
	var inst instance
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

// closedLoop runs clients closed-loop clients, each sending its next
// request when the previous one returns, from request first (a pass
// boundary) until dur has passed, at least minReqs requests are done and
// the last pass is complete.
func closedLoop(clients, passLen, first, minReqs int, dur time.Duration, do func(seq int) sample) ([]sample, time.Duration) {
	var mu sync.Mutex
	var samples []sample
	next := first
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= dur && next-first >= minReqs && next%passLen == 0 {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq, ok := take()
				if !ok {
					return
				}
				s := do(seq)
				s.seq = seq
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	sort.Slice(samples, func(i, j int) bool { return samples[i].seq < samples[j].seq })
	return samples, window
}

// measured is one timed window.
type measured struct {
	samples    []sample
	window     time.Duration
	allocBytes uint64
	// peakRSS is the process's peak resident set, read as the window
	// closes (before the checks run), in MiB.
	peakRSS float64
}

func measure(clients, passLen, first, minReqs int, dur time.Duration, do func(seq int) sample) measured {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples, window := closedLoop(clients, passLen, first, minReqs, dur, do)
	runtime.ReadMemStats(&after)
	return measured{samples: samples, window: window, allocBytes: after.TotalAlloc - before.TotalAlloc, peakRSS: peakRSSMiB()}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits are the end-to-end metrics every run prints, with units.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"cells_per_s":       "cells/s",
	"req_ms_p50":        "ms",
	"req_ms_p90":        "ms",
	"cold_req_ms_p50":   "ms",
	"warm_req_ms_p50":   "ms",
	"alloc_kb_per_cell": "KiB",
	"max_rss_mb":        "MiB",
	"success_rate":      "fraction",
	"model_sim_mape":    "%",
}

// endToEnd derives the end-to-end metrics of an untraced window. notes
// collects the base of every ratio and the sample count of every
// percentile.
func endToEnd(m measured, setups []float64, v verdict, notes map[string]any) (map[string]metric, int, error) {
	var lat, cold, warm []float64
	cells, failed := 0, 0
	for _, s := range m.samples {
		ms := float64(s.lat) / float64(time.Millisecond)
		if s.err != nil {
			failed++
			ms = math.Inf(1) // a failed request misses every latency figure
		} else {
			cells += s.cells
		}
		lat = append(lat, ms)
		if s.cold {
			cold = append(cold, ms)
		} else {
			warm = append(warm, ms)
		}
	}
	attempted := len(m.samples)
	errRate, err := errorRate(failed, attempted)
	if err != nil {
		return nil, failed, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, failed, err
	}
	if len(cold) == 0 || len(warm) == 0 {
		return nil, failed, fmt.Errorf("need cold and warm requests, got %d and %d", len(cold), len(warm))
	}
	if cells == 0 {
		return nil, failed, fmt.Errorf("no cell completed")
	}
	notes["req_ms_p50.samples"] = len(lat)
	notes["req_ms_p90.samples"] = len(lat)
	notes["cold_req_ms_p50.samples"] = len(cold)
	notes["warm_req_ms_p50.samples"] = len(warm)
	notes["cells"] = cells
	notes["window_s"] = m.window.Seconds()
	notes["success_rate.base"] = map[string]int{"failed": failed, "attempted": attempted}
	notes["model_sim_mape.pairs"] = v.pairs
	notes["setup_s.runs"] = len(setups)
	values := map[string]float64{
		"setup_s":           median(setups),
		"cells_per_s":       float64(cells) / m.window.Seconds(),
		"req_ms_p50":        finite(median(lat)),
		"req_ms_p90":        finite(p90),
		"cold_req_ms_p50":   finite(median(cold)),
		"warm_req_ms_p50":   finite(median(warm)),
		"alloc_kb_per_cell": float64(m.allocBytes) / 1024 / float64(cells),
		"max_rss_mb":        m.peakRSS,
		"success_rate":      1 - errRate,
		"model_sim_mape":    v.mape,
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{v, endToEndUnits[name]}
	}
	return out, failed, nil
}

// finite maps +Inf (failed requests past the percentile) to the largest
// float so the figure stays printable and reads as worst possible.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// traceOverhead is the traced run's cost in percent: the median of its
// top-level calls against the untraced median of requests of the same
// kind, new inputs against new and repeated against repeated, weighted by
// the traced run's mix, so the two runs' cold/warm mixes cannot bias it.
func traceOverhead(untraced, traced []sample) float64 {
	var sum float64
	n := 0
	for _, cold := range []bool{true, false} {
		var u, t []float64
		for _, s := range untraced {
			if s.err == nil && s.cold == cold {
				u = append(u, float64(s.lat))
			}
		}
		for _, s := range traced {
			if s.err == nil && s.cold == cold {
				t = append(t, float64(s.top))
			}
		}
		if len(u) == 0 || len(t) == 0 {
			continue
		}
		sum += float64(len(t)) * median(t) / median(u)
		n += len(t)
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * (sum/float64(n) - 1)
}
