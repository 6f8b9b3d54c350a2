// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the program's layers, checks the outputs, and prints
// every end-to-end metric (or, with -trace 1, every per-layer metric) as
// the last line of standard output. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

var workloads = []workload{
	{name: "model-curves", clients: 1, passLen: curvePass, setup: setupCurves},
	{name: "sim-paper", clients: 2, passLen: simPaperPass, setup: setupSimPaper},
	{name: "fleet-mixed", clients: 1, passLen: 6, prepare: prepareFleet, setup: setupFleet},
	{name: "plan-search", clients: 1, passLen: planRounds * 7, setup: setupPlan},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything needed to read and compare
// the result.
type report struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Environment environment    `json:"environment"`
	Notes       map[string]any `json:"notes"`
	Error       string         `json:"error,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: model-curves, sim-paper, fleet-mixed or plan-search")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
		workdir = flag.String("workdir", ".bench_build/work", "working directory for stores")
		results = flag.String("results", ".bench_build/results", "directory the report and trace are written to")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep := report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Environment: readEnvironment(), Notes: map[string]any{},
	}
	res, runErr := run(context.Background(), *w, *seed, *seconds, *trace == 1, *workdir, *results, rep.Notes)
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	line, err := json.Marshal(rep)
	if err == nil {
		fmt.Println(string(line))
		if mkErr := os.MkdirAll(*results, 0o755); mkErr == nil {
			base := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)
			if werr := os.WriteFile(filepath.Join(*results, base), line, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing report:", werr)
			}
		}
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", runErr)
		os.Exit(1)
	}
}

// run executes one invocation. A nil result means the run could not
// produce figures at all; a result with Correct false carries figures
// from a run whose outputs failed a check.
func run(ctx context.Context, w workload, seed uint64, seconds float64, traced bool, workdir, results string, notes map[string]any) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: seed, workdir: dir}
	if w.prepare != nil {
		if err := w.prepare(ctx, cfg); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	inst, setups, err := timedSetup(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	window := time.Duration(seconds * float64(time.Second))
	if traced {
		window /= 2
	}
	m := measure(w.clients, w.passLen, 0, minRequests, window, func(seq int) sample { return inst.request(ctx, seq) })
	v, checkErr := inst.verify(ctx, m.samples)
	for k, val := range v.notes {
		notes[k] = val
	}
	e2e, failed, err := endToEnd(m, setups, v, notes)
	if err != nil {
		return nil, errors.Join(err, checkErr)
	}
	if !traced {
		return &result{Correct: checkErr == nil, Attempted: len(m.samples), Failed: failed, Metrics: e2e}, checkErr
	}

	tr := newTracer()
	microRes := microPanel(tr)
	// The traced half continues where the untraced one stopped, at the
	// next pass of new inputs, so its new inputs are new to the workload's
	// state too (a fleet's stores); it runs at least one pass of new
	// inputs and one of repeats.
	first := (len(m.samples) + 2*w.passLen - 1) / (2 * w.passLen) * (2 * w.passLen)
	mt := measure(w.clients, w.passLen, first, 2*w.passLen, window, func(seq int) sample { return inst.traced(ctx, tr, seq) })
	if _, err := inst.verify(ctx, mt.samples); err != nil {
		checkErr = errors.Join(checkErr, fmt.Errorf("traced run: %w", err))
	}
	tfailed := 0
	for _, s := range mt.samples {
		if s.err != nil {
			tfailed++
		}
	}
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(results, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	notes["trace_file"] = tracePath
	notes["traced_requests"] = len(mt.samples)
	notes["traced_first_request"] = first
	ix := indexSpans(tr.snapshot())
	layers := layerMetrics(ix, inst.layers(ix, mt.samples), microRes, zeroNaN(traceOverhead(m.samples, mt.samples)))
	return &result{
		Correct:   checkErr == nil,
		Attempted: len(m.samples) + len(mt.samples),
		Failed:    failed + tfailed,
		Metrics:   layers,
	}, checkErr
}

// spanMetric derives one per-layer metric from the spans named span (and
// attr, when set): the median per call, or per span when whole is set.
type spanMetric struct {
	name, span, attr, unit string
	whole                  bool
}

var units = map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond}

func spanMetrics() []spanMetric {
	ms := []spanMetric{
		{name: "analytic.new_model_us", span: "analytic.new_model", unit: "us"},
		{name: "queueing.wait_ns.mg1", span: "queueing.wait", attr: "mg1", unit: "ns"},
		{name: "queueing.wait_ns.mgm", span: "queueing.wait", attr: "mgm", unit: "ns"},
		{name: "sweep.expand_us", span: "sweep.expand", unit: "us"},
		{name: "sim.run_ms_p50", span: "sim.run", unit: "ms", whole: true},
		{name: "eval.key_ns", span: "eval.key", unit: "ns"},
		{name: "eval.parse_key_ns", span: "eval.parse_key", unit: "ns"},
		{name: "eval.wire_encode_us", span: "eval.wire_encode", unit: "us"},
		{name: "eval.wire_decode_us", span: "eval.wire_decode", unit: "us"},
		{name: "bounds.compute_us", span: "bounds.compute", unit: "us"},
		{name: "store.get_ns", span: "store.get", unit: "ns"},
		{name: "store.put_us", span: "store.put", unit: "us"},
		{name: "serve.eval_ms", span: "serve.eval", unit: "ms"},
		{name: "serve.batch_ms", span: "serve.batch", unit: "ms"},
		{name: "serve.sweep_part_ms", span: "serve.sweep_part", unit: "ms"},
		{name: "client.remote_ms_p50", span: "client.remote", unit: "ms"},
		{name: "client.batch_ms_p50", span: "client.batch", unit: "ms"},
		{name: "client.dispatch_ms_p50", span: "client.dispatch", unit: "ms"},
	}
	for _, fam := range []string{"bft", "hypercube", "torus"} {
		ms = append(ms,
			spanMetric{name: "analytic.saturation_ms." + fam, span: "analytic.saturation", attr: fam, unit: "ms"},
			spanMetric{name: "analytic.latency_us." + fam, span: "analytic.latency", attr: fam, unit: "us"})
	}
	for _, fam := range []string{"hypercube", "torus"} {
		ms = append(ms, spanMetric{name: "core.resolve_us." + fam, span: "core.resolve", attr: fam, unit: "us"})
	}
	for _, size := range []string{"64", "256", "1024"} {
		ms = append(ms, spanMetric{name: "topology.build_ms." + size, span: "topology.build", attr: size, unit: "ms"})
	}
	for _, class := range simClasses {
		ms = append(ms, spanMetric{name: "sim.ns_per_msg." + class, span: "sim.run", attr: class, unit: "ns"})
	}
	for _, b := range planBuiltins() {
		ms = append(ms, spanMetric{name: "plan.run_ms." + b, span: "plan.run", attr: b, unit: "ms"})
	}
	return ms
}

// workloadLayerMetrics are the per-layer figures a workload reports
// itself (instance.layers), with their units.
var workloadLayerMetrics = map[string]string{
	"sweep.self_ms":                "ms",
	"sweep.cache_hit_ratio":        "fraction",
	"sim.msgs":                     "count",
	"sim.cycles":                   "count",
	"sim.saturated_frac":           "fraction",
	"eval.sim_overhead_us":         "us",
	"store.open_ms":                "ms",
	"store.hit_ratio":              "fraction",
	"dispatch.requeues":            "count",
	"dispatch.failures":            "count",
	"plan.analytic_evals":          "count",
	"plan.sim_evals":               "count",
	"plan.sim_evals_saved_vs_grid": "count",
	"plan.certified_frac":          "fraction",
}

// selfLayers are the layers whose self time per request is reported.
var selfLayers = []string{"analytic", "bench", "bounds", "client", "core", "eval", "plan",
	"queueing", "serve", "sim", "store", "sweep", "topology"}

// layerMetrics assembles the traced run's figures; BENCHMARK.json lists
// the same names. A layer the workload's inputs never reach reads 0.
func layerMetrics(ix *spanIndex, own, micro map[string]float64, overheadPct float64) map[string]metric {
	out := make(map[string]metric)
	for _, m := range spanMetrics() {
		v := median(ix.durations(m.span, m.attr, units[m.unit], !m.whole))
		if math.IsNaN(v) {
			v = 0
		}
		out[m.name] = metric{v, m.unit}
	}
	for n, u := range workloadLayerMetrics {
		out[n] = metric{own[n], u}
	}
	for _, mm := range microMetrics {
		out[mm.name] = metric{micro[mm.name], mm.unit}
	}
	self := ix.selfPerRequest()
	for _, l := range selfLayers {
		out["self_ms."+l] = metric{self[l], "ms"}
	}
	out["bench.trace_overhead_pct"] = metric{overheadPct, "%"}
	return out
}
