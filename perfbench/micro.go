package main

import (
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// The micro panel covers the hot paths the repository's root
// microbenchmarks cover, calling the same exported functions with the
// same arguments, and reports them in this benchmark's schema. It runs
// once per traced run, under a request span of its own that the
// workload's per-layer figures leave out.

const microAttr = "micro"

var microMetrics = []struct{ name, unit string }{
	{"micro.queueing_mg1_ns", "ns"},
	{"micro.queueing_mgm_ns", "ns"},
	{"micro.bft_closed_form_us", "us"},
	{"micro.bft_core_graph_us", "us"},
	{"micro.fattree_1024_ms", "ms"},
	{"micro.sweep_expand_us", "us"},
}

// microReps is how many timed batches each micro figure is the median of.
const microReps = 7

var microSink float64

func microPanel(tr *tracer) map[string]float64 {
	req := tr.begin(0, "bench.request", microAttr)
	defer tr.end(req, 1)
	ft := analytic.MustFatTreeModel(1024, 16, core.Options{})
	expandSpec := sweep.Spec{
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}}},
		MsgFlits:   []int{16, 32, 64},
		Policies:   []string{"pairqueue", "randomfixed"},
		Loads:      sweep.LoadSpec{Points: 10, MaxFrac: 0.95},
		WithSim:    true,
		Budget:     sweep.Quick,
	}
	cases := []struct {
		name, span string
		calls      int
		unit       time.Duration
		f          func()
	}{
		{"micro.queueing_mg1_ns", "queueing.wait", 100000, time.Nanosecond, func() {
			microSink += queueing.WaitWormholeMG1(0.002, 20, 16)
		}},
		{"micro.queueing_mgm_ns", "queueing.wait", 100000, time.Nanosecond, func() {
			microSink += queueing.WaitWormholeMGm(2, 0.004, 20, 16)
		}},
		{"micro.bft_closed_form_us", "analytic.latency", 2000, time.Microsecond, func() {
			l, _ := ft.Latency(0.002)
			microSink += l.Total
		}},
		{"micro.bft_core_graph_us", "core.resolve", 50, time.Microsecond, func() {
			r, _ := ft.BuildCoreModel(0.002).Resolve(core.Options{})
			if r != nil {
				microSink += r.Wait[0]
			}
		}},
		{"micro.fattree_1024_ms", "topology.build", 3, time.Millisecond, func() {
			microSink += float64(topology.MustFatTree(1024).NumChannels())
		}},
		{"micro.sweep_expand_us", "sweep.expand", 20, time.Microsecond, func() {
			scens, _ := sweep.Expand(expandSpec)
			microSink += float64(len(scens))
		}},
	}
	out := make(map[string]float64, len(cases))
	for _, c := range cases {
		var per []float64
		for r := 0; r < microReps; r++ {
			id := tr.begin(req, c.span, microAttr)
			start := time.Now()
			for i := 0; i < c.calls; i++ {
				c.f()
			}
			d := time.Since(start)
			tr.end(id, c.calls)
			per = append(per, float64(d)/float64(c.calls)/float64(c.unit))
		}
		out[c.name] = median(per)
	}
	return out
}
