package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// sim-paper: two clients, each request one with-sim cell of the figure3,
// policies, bursty and hotspot builtins through sweep.Runner.Evaluate,
// the path sweeps, sweepd and plan certification share. The event-driven
// simulator does the work.

type simPaper struct {
	seed   uint64
	runner *sweep.Runner

	mu     sync.Mutex
	passes map[int][]eval.Scenario // input pass → its cells
	counts simCounts
}

// simCounts are exact for a seed: summed over one direct run of each cell
// of pass 0, the untraced run's first.
type simCounts struct {
	msgs, cycles, sims, saturated int64
}

func setupSimPaper(ctx context.Context, cfg config) (instance, error) {
	cells, err := simPaperCells(cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	p := &simPaper{
		seed:   cfg.seed,
		runner: serveRunner(),
		passes: map[int][]eval.Scenario{0: cells},
	}
	// Warm-up: a tiny simulation per topology builds the simulator
	// networks and load anchors the requests will reuse.
	seen := make(map[eval.Topology]bool)
	for _, sc := range cells {
		if seen[sc.Topology] {
			continue
		}
		seen[sc.Topology] = true
		w := eval.Scenario{Topology: sc.Topology, MsgFlits: 16, Load: eval.Load{Frac: true, Value: 0.1},
			WithSim: true, Budget: eval.Budget{Warmup: 50, Measure: 200, Seed: 1}}
		if _, _, err := p.runner.Evaluate(ctx, w); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// simPaperPass is the number of cells in one pass of the builtins.
const simPaperPass = 52

// cell returns request seq's scenario, generating its pass's inputs on
// first use (outside the request's timing).
func (p *simPaper) cell(seq int) (eval.Scenario, bool, error) {
	pass, fresh := inputPass(seq, simPaperPass)
	p.mu.Lock()
	defer p.mu.Unlock()
	cells, ok := p.passes[pass]
	if !ok {
		var err error
		if cells, err = simPaperCells(p.seed, pass); err != nil {
			return eval.Scenario{}, false, err
		}
		p.passes[pass] = cells
	}
	return cells[seq%len(cells)], fresh, nil
}

// simOut is what a sim-paper request returned; key is the sequence
// number of the first request of the same cell.
type simOut struct {
	key int
	sc  eval.Scenario
	pt  eval.Point
}

func simKey(seq int) int {
	pass, _ := inputPass(seq, simPaperPass)
	return pass*simPaperPass + seq%simPaperPass
}

func (p *simPaper) request(ctx context.Context, seq int) sample {
	sc, fresh, err := p.cell(seq)
	if err != nil {
		return sample{err: err}
	}
	start := time.Now()
	cell, _, err := p.runner.Evaluate(ctx, sc)
	return sample{lat: time.Since(start), kind: simClass(sc), cold: fresh, err: err, cells: 1,
		out: simOut{key: simKey(seq), sc: sc, pt: cell}}
}

func (p *simPaper) traced(ctx context.Context, tr *tracer, seq int) sample {
	sc, fresh, err := p.cell(seq)
	if err != nil {
		return sample{err: err}
	}
	req := tr.begin(0, "bench.request", simClass(sc))
	defer tr.end(req, 1)
	var cell eval.Point
	top := tr.do(req, "sweep.evaluate", simClass(sc), func() { cell, _, err = p.runner.Evaluate(ctx, sc) })
	s := sample{top: top, kind: simClass(sc), cold: fresh, err: err, cells: 1, out: simOut{key: simKey(seq), sc: sc, pt: cell}}
	if err != nil {
		return s
	}
	res, err := directSim(ctx, tr, req, sc, cell.LoadFlits)
	if err != nil {
		s.err = err
		return s
	}
	if !sameSim(cell, res) {
		s.err = fmt.Errorf("%s: sim %v±%v via the runner, %v±%v direct", sc.Key(), cell.Sim, cell.SimCI, res.LatencyMean, res.LatencyCI95)
		return s
	}
	if sc.Workload.ModelApplicable() {
		rep, err := replayModel(tr, req, sc.Topology, sc.MsgFlits, []float64{sc.Load.Value}, sc.Load.Frac, false)
		if err != nil {
			s.err = err
			return s
		}
		if !sameBits(rep.lat[0], cell.Model) {
			s.err = fmt.Errorf("%s: model %v direct, %v via the runner", sc.Key(), rep.lat[0], cell.Model)
			return s
		}
	}
	s.err = replayEval(tr, req, []eval.Scenario{sc}, []eval.Point{cell})
	return s
}

// verify: every repeat of a cell bit-equal to its first evaluation, and
// each cell of the run's first pass bit-equal to a direct sim.Run of the
// same configuration (the per-seed bit-identity contract; the traced run
// checks every cell it runs the same way).
func (p *simPaper) verify(ctx context.Context, samples []sample) (verdict, error) {
	first := make(map[int]simOut)
	for _, s := range samples {
		if s.err != nil {
			return verdict{}, fmt.Errorf("request %d: %w", s.seq, s.err)
		}
		o := s.out.(simOut)
		if f, ok := first[o.key]; ok {
			if !samePoint(f.pt, o.pt) || !sameBits(f.pt.Sim, o.pt.Sim) {
				return verdict{}, fmt.Errorf("request %d: cell %s differs from its first evaluation", s.seq, o.sc.Key())
			}
			continue
		}
		first[o.key] = o
	}
	lo := -1
	for key := range first {
		if lo < 0 || key < lo {
			lo = key
		}
	}
	var idx []int
	for key := range first {
		if key < lo+simPaperPass {
			idx = append(idx, key)
		}
	}
	if lo%simPaperPass != 0 || len(idx) != simPaperPass {
		return verdict{}, fmt.Errorf("first pass incomplete: %d of %d cells", len(idx), simPaperPass)
	}
	sort.Ints(idx) // the mape sum's order, fixed

	errs := make([]error, len(idx))
	var counts simCounts
	var mu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := first[idx[j]]
				sc, pt := o.sc, o.pt
				res, err := directSim(ctx, nil, 0, sc, pt.LoadFlits)
				if err == nil && !sameSim(pt, res) {
					err = fmt.Errorf("%s: sim %v±%v via the runner, %v±%v direct", sc.Key(), pt.Sim, pt.SimCI, res.LatencyMean, res.LatencyCI95)
				}
				errs[j] = err
				if err != nil {
					continue
				}
				mu.Lock()
				counts.msgs += int64(res.TotalCompleted)
				counts.cycles += int64(res.Cycles)
				counts.sims++
				if res.Saturated {
					counts.saturated++
				}
				mu.Unlock()
			}
		}()
	}
	for j := range idx {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return verdict{}, err
		}
	}
	if lo == 0 {
		p.mu.Lock()
		p.counts = counts
		p.mu.Unlock()
	}
	pts := make([]eval.Point, 0, len(idx))
	for _, key := range idx {
		pts = append(pts, first[key].pt)
	}
	mape, pairs := mapeOf(pts)
	return verdict{mape: mape, pairs: pairs, notes: map[string]any{
		"cells_checked":      len(first),
		"cells_run_directly": len(idx),
		"sim.msgs":           counts.msgs,
		"sim.cycles":         counts.cycles,
		"sim.saturated.base": map[string]int64{"saturated": counts.saturated, "sims": counts.sims},
	}}, nil
}

// layers: exact counts from the direct runs, and the runner's cost beyond
// the simulation it wraps (Runner.Evaluate minus sim.Run, same cell).
func (p *simPaper) layers(ix *spanIndex, samples []sample) map[string]float64 {
	var over []float64
	for i := range ix.spans {
		s := &ix.spans[i]
		if s.Parent != 0 || s.Attr == microAttr {
			continue
		}
		var evaluate, run time.Duration
		for _, k := range ix.children[s.ID] {
			switch ch := ix.get(k); ch.Name {
			case "sweep.evaluate":
				evaluate = ch.dur()
			case "sim.run":
				run = ch.dur()
			}
		}
		over = append(over, float64(evaluate-run)/float64(time.Microsecond))
	}
	p.mu.Lock()
	c := p.counts
	p.mu.Unlock()
	return map[string]float64{
		"eval.sim_overhead_us": zeroNaN(median(over)),
		"sim.msgs":             float64(c.msgs),
		"sim.cycles":           float64(c.cycles),
		"sim.saturated_frac":   ratio{c.saturated, c.sims}.value(),
	}
}

func (p *simPaper) close() {}
