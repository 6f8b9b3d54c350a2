package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// plan-search: one client, each request one plan builtin on a fresh
// plan.NewLocal with an empty cache. The planner probes the model at
// bisected off-grid loads, calls the bound calculus for hard SLOs and
// certifies a few sims: the same layers as a grid, used differently.

type planSearch struct {
	seed  uint64
	specs []plan.Spec
}

// planMapeReplicas is how many simulator seeds each certified frontier
// candidate runs under for model_sim_mape: a run certifies only five to
// seven candidates, too few for a mean error that is steady across seeds.
const planMapeReplicas = 8

// planOut is what a plan-search request returned.
type planOut struct {
	res          *plan.Result
	hits, misses int64
}

func setupPlan(ctx context.Context, cfg config) (instance, error) {
	specs, err := planSpecs(cfg.seed)
	if err != nil {
		return nil, err
	}
	p := &planSearch{seed: cfg.seed, specs: specs}
	// Warm-up: a model-only plan no request asks, so lazy state is built
	// before timing.
	warm, err := plan.Builtin("bft-capacity-small")
	if err != nil {
		return nil, err
	}
	warm.SkipCertify = true
	warm.Constraints.MaxLatency = 45
	if _, err := plan.NewLocal(sweep.NewCache()).Run(ctx, warm); err != nil {
		return nil, err
	}
	return p, nil
}

func planCells(res *plan.Result) int {
	return res.Stats.AnalyticEvals() + res.Stats.SimEvals
}

func (p *planSearch) request(ctx context.Context, seq int) sample {
	spec := p.specs[seq%len(p.specs)]
	cache := sweep.NewCache()
	start := time.Now()
	res, err := plan.NewLocal(cache).Run(ctx, spec)
	s := sample{lat: time.Since(start), kind: spec.Name, cold: seq < len(p.specs), err: err}
	if err == nil {
		h, m := cache.Stats()
		s.cells = planCells(res)
		s.out = planOut{res: res, hits: h, misses: m}
	}
	return s
}

// tracedEngine is the engine plan.NewLocal builds, with each call the
// planner makes into the sweep layer recorded as a span.
type tracedEngine struct {
	r      *sweep.Runner
	tr     *tracer
	parent int32

	mu     sync.Mutex
	grids  []sweep.Spec
	certs  []eval.Scenario
	points []eval.Point
}

func (e *tracedEngine) Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	var res *sweep.Result
	var err error
	e.tr.do(e.parent, "sweep.run", "", func() { res, err = e.r.Run(ctx, spec) })
	e.mu.Lock()
	e.grids = append(e.grids, spec)
	e.mu.Unlock()
	return res, err
}

func (e *tracedEngine) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, bool, error) {
	var pt eval.Point
	var hit bool
	var err error
	attr := "model"
	if sc.WithSim {
		attr = "sim"
	}
	e.tr.do(e.parent, "sweep.evaluate", attr, func() { pt, hit, err = e.r.Evaluate(ctx, sc) })
	if err == nil && sc.WithSim {
		e.mu.Lock()
		e.certs = append(e.certs, sc)
		e.points = append(e.points, pt)
		e.mu.Unlock()
	}
	return pt, hit, err
}

func (p *planSearch) traced(ctx context.Context, tr *tracer, seq int) sample {
	spec := p.specs[seq%len(p.specs)]
	req := tr.begin(0, "bench.request", spec.Name)
	defer tr.end(req, 1)
	cache := sweep.NewCache()
	eng := &tracedEngine{r: serveRunner(sweep.WithCache(cache)), tr: tr}
	top := tr.begin(req, "plan.run", spec.Name)
	eng.parent = top
	start := time.Now()
	res, err := plan.New(eng).Run(ctx, spec)
	s := sample{top: time.Since(start), kind: spec.Name, cold: seq < len(p.specs), err: err}
	tr.end(top, 1)
	if err != nil {
		return s
	}
	h, m := cache.Stats()
	s.cells = planCells(res)
	s.out = planOut{res: res, hits: h, misses: m}
	for _, g := range eng.grids {
		tr.do(req, "sweep.expand", "", func() { _, err = sweep.Expand(g) })
		if err != nil {
			s.err = err
			return s
		}
	}
	// The frontier's model side, replayed at each operating point as a
	// fraction of the saturation load the planner anchored it at.
	for _, c := range res.Frontier {
		load, fracs := c.OperatingLoad, c.SaturationLoad > 0
		if fracs {
			load /= c.SaturationLoad
		}
		rep, err := replayModel(tr, req, c.Topology, c.MsgFlits, []float64{load}, fracs,
			spec.WithBounds || spec.Constraints.MaxWorstCaseLatency > 0)
		if err != nil {
			s.err = err
			return s
		}
		if !closeTo(rep.lat[0], c.Latency) {
			s.err = fmt.Errorf("%s: direct model %v, the plan %v", c.Key(), rep.lat[0], c.Latency)
			return s
		}
	}
	// The certification simulations, run directly.
	for i, sc := range eng.certs {
		r, err := directSim(ctx, tr, req, sc, eng.points[i].LoadFlits)
		if err != nil {
			s.err = err
			return s
		}
		if !sameSim(eng.points[i], r) {
			s.err = fmt.Errorf("%s: certification sim %v, direct %v", sc.Key(), eng.points[i].Sim, r.LatencyMean)
			return s
		}
	}
	s.err = replayEval(tr, req, eng.certs, eng.points)
	return s
}

// verify: every builtin's frontier is non-empty, every frontier candidate
// that needs a sim is certified, no certified mean exceeds its worst-case
// bound, and every repeat of a builtin reproduces its first result.
func (p *planSearch) verify(ctx context.Context, samples []sample) (verdict, error) {
	first := make(map[string]*plan.Result)
	var mapeSample []eval.Scenario
	var frontier, certified int
	for _, s := range samples {
		if s.err != nil {
			return verdict{}, fmt.Errorf("request %d (%s): %w", s.seq, s.kind, s.err)
		}
		res := s.out.(planOut).res
		if len(res.Frontier) == 0 {
			return verdict{}, fmt.Errorf("request %d (%s): empty frontier", s.seq, s.kind)
		}
		for _, c := range res.Frontier {
			needsSim := !res.Spec.SkipCertify && c.Topology.Family != eval.FamilyTorus
			if needsSim && !c.Certified {
				return verdict{}, fmt.Errorf("request %d (%s): frontier candidate %s not certified (sim mean %v, saturated %v, load %v of saturation %v): %s",
					s.seq, s.kind, c.Key(), c.Sim, c.SimSaturated, c.OperatingLoad, c.SaturationLoad, c.CertifyNote)
			}
			if !math.IsNaN(c.BoundMax) && !math.IsNaN(c.Sim) && c.Sim > c.BoundMax {
				return verdict{}, fmt.Errorf("request %d (%s): %s sim mean %v exceeds its worst-case bound %v",
					s.seq, s.kind, c.Key(), c.Sim, c.BoundMax)
			}
		}
		f, ok := first[s.kind]
		if !ok {
			first[s.kind] = res
			for _, c := range res.Frontier {
				if c.Topology.Family == eval.FamilyTorus || res.Spec.SkipCertify {
					continue
				}
				frontier++
				if c.Certified {
					certified++
				}
				if !res.Spec.Workload.ModelApplicable() {
					continue
				}
				pol, err := sim.ParsePolicy(c.Policy)
				if err != nil {
					return verdict{}, err
				}
				sc := eval.Scenario{Topology: c.Topology, MsgFlits: c.MsgFlits, Policy: pol,
					Load: eval.Load{Value: c.OperatingLoad}, Workload: res.Spec.Workload}
				for r := 0; r < planMapeReplicas; r++ {
					mapeSample = append(mapeSample, sc)
				}
			}
			continue
		}
		if f.Stats != res.Stats || len(f.Frontier) != len(res.Frontier) {
			return verdict{}, fmt.Errorf("request %d (%s): stats %+v differ from the first run's %+v", s.seq, s.kind, res.Stats, f.Stats)
		}
		for i := range f.Frontier {
			a, b := f.Frontier[i], res.Frontier[i]
			if a.Key() != b.Key() || !sameBits(a.Latency, b.Latency) || !sameBits(a.Sim, b.Sim) || !sameBits(a.OperatingLoad, b.OperatingLoad) {
				return verdict{}, fmt.Errorf("request %d (%s): frontier %d differs from the first run's", s.seq, s.kind, i)
			}
		}
	}
	var hits, lookups int64
	for _, s := range samples {
		o := s.out.(planOut)
		hits += o.hits
		lookups += o.hits + o.misses
	}
	// The mape sample: each certified candidate at its operating point,
	// simulated after the window under planMapeReplicas seeds.
	pts, err := simulateSample(ctx, mapeSample, p.seed)
	if err != nil {
		return verdict{}, err
	}
	mape, pairs := mapeOf(pts)
	return verdict{mape: mape, pairs: pairs, notes: map[string]any{
		"builtins_checked":           len(first),
		"plan.certified_frac.base":   map[string]int{"certified": certified, "frontier": frontier},
		"sweep.cache_hit_ratio.base": map[string]int64{"hits": hits, "lookups": lookups},
	}}, nil
}

// layers: the search's exact counts, summed over one run of each builtin,
// and its cache use.
func (p *planSearch) layers(ix *spanIndex, samples []sample) map[string]float64 {
	seen := make(map[string]bool)
	var analytic, sims, saved, certified, frontier int
	var hits, lookups int64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		o := s.out.(planOut)
		hits += o.hits
		lookups += o.hits + o.misses
		if seen[s.kind] {
			continue
		}
		seen[s.kind] = true
		st := o.res.Stats
		analytic += st.AnalyticEvals()
		sims += st.SimEvals
		if !o.res.Spec.SkipCertify {
			saved += st.CoarseCells - st.SimEvals
			frontier += st.FrontierSize
			certified += st.Certified
		}
	}
	return map[string]float64{
		"plan.analytic_evals":          float64(analytic),
		"plan.sim_evals":               float64(sims),
		"plan.sim_evals_saved_vs_grid": float64(saved),
		"plan.certified_frac":          ratio{int64(certified), int64(frontier)}.value(),
		"sweep.cache_hit_ratio":        ratio{hits, lookups}.value(),
	}
}

func (p *planSearch) close() {}
