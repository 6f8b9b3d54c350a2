package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// model-curves: one client, each request one model-only load–latency
// curve of the families grid through sweep.Runner.Run on a fresh
// analytic backend. The solver stack does the work; the simulator none.

// curvePass is the number of curves in one pass (see curveCells).
const curvePass = 33

type curves struct {
	seed  uint64
	cells []curveCell
}

// curveOut is what a model-curves request returned. key names the curve:
// the sequence number of the request that first ran it.
type curveOut struct {
	key         int
	load, model []float64
}

func setupCurves(ctx context.Context, cfg config) (instance, error) {
	cells, err := curveCells()
	if err != nil {
		return nil, err
	}
	if len(cells) != curvePass {
		return nil, fmt.Errorf("%d curves a pass, want %d", len(cells), curvePass)
	}
	c := &curves{seed: cfg.seed, cells: cells}
	warmed := make(map[string]bool)
	for i := range cells {
		spec := curveSpec(cells, cfg.seed, i)
		if _, err := sweep.Expand(spec); err != nil {
			return nil, err
		}
		// Warm-up: one point on the first curve of each family, at a
		// load no request uses, so lazy state is built before timing.
		if fam := spec.Topologies[0].Family; !warmed[fam] {
			warmed[fam] = true
			spec.Loads = sweep.LoadSpec{Fracs: []float64{0.5}}
			if _, err := runCurve(ctx, spec); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// runCurve is the request: the default runner builds a fresh analytic
// backend per Run. One worker keeps the request on one CPU, so its time
// is the solver's rather than how the host happens to share its second
// CPU at that moment (which made two-worker curve times bimodal).
func runCurve(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	return (&sweep.Runner{Workers: 1}).Run(ctx, spec)
}

func (c *curves) request(ctx context.Context, seq int) sample {
	spec := curveSpec(c.cells, c.seed, seq)
	_, fresh := inputPass(seq, len(c.cells))
	start := time.Now()
	res, err := runCurve(ctx, spec)
	s := sample{lat: time.Since(start), kind: spec.Topologies[0].Family, cold: fresh, err: err}
	if err == nil {
		s.cells = len(res.Rows)
		s.out = outOf(c.curveKey(seq), res)
	}
	return s
}

// curveKey is the sequence number of the first request of seq's curve.
func (c *curves) curveKey(seq int) int {
	pass, _ := inputPass(seq, len(c.cells))
	return pass*len(c.cells) + seq%len(c.cells)
}

func outOf(key int, res *sweep.Result) curveOut {
	o := curveOut{key: key}
	for _, r := range res.Rows {
		o.load = append(o.load, r.LoadFlits)
		o.model = append(o.model, r.Model)
	}
	return o
}

func (c *curves) traced(ctx context.Context, tr *tracer, seq int) sample {
	spec := curveSpec(c.cells, c.seed, seq)
	_, fresh := inputPass(seq, len(c.cells))
	fam := spec.Topologies[0].Family
	req := tr.begin(0, "bench.request", fam)
	defer tr.end(req, 1)
	var res *sweep.Result
	var err error
	top := tr.do(req, "sweep.run", fam, func() { res, err = runCurve(ctx, spec) })
	s := sample{top: top, kind: fam, cold: fresh, err: err}
	if err != nil {
		return s
	}
	s.cells = len(res.Rows)
	out := outOf(c.curveKey(seq), res)
	s.out = out
	var scens []eval.Scenario
	tr.do(req, "sweep.expand", "", func() { scens, err = sweep.Expand(spec) })
	if err != nil {
		s.err = err
		return s
	}
	topo := scens[0].Topology
	rep, err := replayModel(tr, req, topo, spec.MsgFlits[0], spec.Loads.Fracs, true, false)
	if err != nil {
		s.err = err
		return s
	}
	for i := range rep.lat {
		if !sameBits(rep.lat[i], out.model[i]) || !sameBits(rep.load[i], out.load[i]) {
			s.err = fmt.Errorf("%s point %d: direct model gives %v at %v, the sweep %v at %v",
				topo, i, rep.lat[i], rep.load[i], out.model[i], out.load[i])
			return s
		}
	}
	pts := make([]eval.Point, len(res.Rows))
	for i, r := range res.Rows {
		pts[i] = r.Cell
	}
	s.err = replayEval(tr, req, scens, pts)
	return s
}

// verify: every point finite, positive and increasing in load along its
// curve; every repeat of a curve bit-equal to its first evaluation; and
// every point bit-equal to the same scenario on a second fresh backend.
func (c *curves) verify(ctx context.Context, samples []sample) (verdict, error) {
	first := make(map[int]curveOut)
	for _, s := range samples {
		if s.err != nil {
			return verdict{}, fmt.Errorf("request %d: %w", s.seq, s.err)
		}
		o := s.out.(curveOut)
		if len(o.model) != curvePoints {
			return verdict{}, fmt.Errorf("request %d: %d points, want %d", s.seq, len(o.model), curvePoints)
		}
		for i, m := range o.model {
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				return verdict{}, fmt.Errorf("request %d point %d: latency %v", s.seq, i, m)
			}
			if i > 0 && (o.load[i] <= o.load[i-1] || m <= o.model[i-1]) {
				return verdict{}, fmt.Errorf("request %d point %d: latency %v at load %v does not rise from %v at %v",
					s.seq, i, m, o.load[i], o.model[i-1], o.load[i-1])
			}
		}
		f, ok := first[o.key]
		if !ok {
			first[o.key] = o
			continue
		}
		for i := range o.model {
			if !sameBits(f.model[i], o.model[i]) || !sameBits(f.load[i], o.load[i]) {
				return verdict{}, fmt.Errorf("request %d point %d: %v differs from the curve's first evaluation %v",
					s.seq, i, o.model[i], f.model[i])
			}
		}
	}
	keys := make([]int, 0, len(first))
	for key := range first {
		keys = append(keys, key)
	}
	// Sorted, so the mape sample's order (and its per-cell seeds) is
	// fixed by the seed.
	sort.Ints(keys)
	ab := eval.NewAnalyticBackend()
	var sample []eval.Scenario
	for _, key := range keys {
		o := first[key]
		scens, err := sweep.Expand(curveSpec(c.cells, c.seed, key))
		if err != nil {
			return verdict{}, err
		}
		for i, sc := range scens {
			pt, err := ab.Evaluate(ctx, sc)
			if err != nil {
				return verdict{}, err
			}
			if !sameBits(pt.Model, o.model[i]) || !sameBits(pt.LoadFlits, o.load[i]) {
				return verdict{}, fmt.Errorf("%s point %d: %v on a second backend, %v in the run",
					sc.CurveKey(), i, pt.Model, o.model[i])
			}
		}
		// The mape sample: the first two new passes' curves on the
		// smallest instances of the simulated families, fixed by the seed
		// (every run holds at least four passes).
		if t := c.cells[key%len(c.cells)].Topo; key < 3*len(c.cells) &&
			((t.Family == eval.FamilyBFT && t.Sizes[0] == 64) || (t.Family == eval.FamilyHypercube && t.Sizes[0] == 6)) {
			sample = append(sample, scens...)
		}
	}
	pts, err := simulateSample(ctx, sample, c.seed)
	if err != nil {
		return verdict{}, err
	}
	mape, pairs := mapeOf(pts)
	return verdict{mape: mape, pairs: pairs, notes: map[string]any{"curves_checked": len(first)}}, nil
}

// layers: sweep.self_ms is the sweep's time on a BFT curve beyond the
// model work it delegates (the same model calls made directly), where
// the model is microseconds and the sweep's own machinery shows.
func (c *curves) layers(ix *spanIndex, samples []sample) map[string]float64 {
	var self []float64
	for i := range ix.spans {
		s := &ix.spans[i]
		if s.Parent != 0 || s.Attr != eval.FamilyBFT {
			continue
		}
		var run, model time.Duration
		for _, k := range ix.children[s.ID] {
			ch := ix.get(k)
			switch {
			case ch.Name == "sweep.run":
				run += ch.dur()
			case ch.layer() == "analytic":
				model += ch.dur()
			}
		}
		self = append(self, float64(run-model)/float64(time.Millisecond))
	}
	return map[string]float64{"sweep.self_ms": zeroNaN(median(self))}
}

func (c *curves) close() {}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
