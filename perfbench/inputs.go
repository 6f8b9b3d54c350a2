package main

import (
	"fmt"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/sweep"
)

// Every input the harness hands the program is a pure function of the
// workload seed and the request's sequence number, so a seed regenerates
// a run's inputs exactly and the program sees nothing else.

// rngFor returns the generator for one input stream of a seed.
func rngFor(seed uint64, stream string, seq int) *rand.Rand {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range stream {
		h = splitmix(h ^ uint64(c))
	}
	h = splitmix(h ^ uint64(seq))
	return rand.New(rand.NewSource(int64(h >> 1)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// budgetSeed is the simulator base seed of one input pass of a seed.
func budgetSeed(seed uint64, pass int) uint64 {
	return splitmix(seed^splitmix(uint64(pass)+1))%(1<<31) + 1
}

// inputPass maps request seq of a workload whose passes hold n requests
// to the pass whose inputs it runs, and reports whether those inputs are
// new: even passes draw new inputs, odd passes repeat the pass before.
// Half the requests are thus cold and half warm, on any run length.
func inputPass(seq, n int) (pass int, fresh bool) {
	p := seq / n
	return p - p%2, p%2 == 0
}

// fracs draws n increasing fractions in (lo, hi], each in the upper half
// of one of n equal strata, so every draw spans the whole range and runs
// carry the same mix of light and heavy load points: the cost of a
// fixed-point solve and the model's error both climb steeply toward
// saturation.
func fracs(r *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	w := (hi - lo) / float64(n)
	for i := range out {
		// Float64() lies in [0, 1): the stratum's upper edge is
		// reachable, its midpoint is not.
		out[i] = lo + w*(float64(i)+1-r.Float64()/2)
	}
	return out
}

// curveCell is one (topology instance, message length) of the families
// grid: the shape of one model-curves request.
type curveCell struct {
	Topo  sweep.TopologySpec
	Flits int
}

// curveCells lists one model-curves pass: the families builtin's curves
// in declaration order (BFT 64/256/1024, hypercube 6/8/10, 4-ary torus
// 3/4/5, each at s=16/32/64), with the BFT-1024 and torus-5 curves twice
// under independent load draws. Curve times fall in clusters, one per
// topology instance; with these 33 requests a pass, the median lands in
// the middle of the hypercube-8 cluster and p90 in the middle of the
// torus-5 one, not at a boundary where host noise reorders two clusters.
func curveCells() ([]curveCell, error) {
	spec, err := sweep.Builtin("families")
	if err != nil {
		return nil, err
	}
	var out []curveCell
	for _, t := range spec.Topologies {
		for _, size := range t.Sizes {
			for _, s := range spec.MsgFlits {
				c := curveCell{Topo: sweep.TopologySpec{Family: t.Family, Sizes: []int{size}, K: t.K}, Flits: s}
				out = append(out, c)
				if size == t.Sizes[len(t.Sizes)-1] && t.Family != sweep.FamilyHypercube {
					out = append(out, c)
				}
			}
		}
	}
	return out, nil
}

// curvePoints is the number of load points on a model-curves curve.
const curvePoints = 8

// curveSpec is model-curves request seq: the curve seq cycles to, at
// curvePoints fractions in (0, 0.9] of its saturation load, drawn anew on
// even passes and repeated on odd ones.
func curveSpec(cells []curveCell, seed uint64, seq int) sweep.Spec {
	pass, _ := inputPass(seq, len(cells))
	i := seq % len(cells)
	c := cells[i]
	return sweep.Spec{
		Name:       "model-curves",
		Topologies: []sweep.TopologySpec{c.Topo},
		MsgFlits:   []int{c.Flits},
		Loads:      sweep.LoadSpec{Fracs: fracs(rngFor(seed, "curves", pass*len(cells)+i), curvePoints, 0, 0.9)},
	}
}

// simPaperBuiltins are the with-sim builtins whose cells sim-paper serves.
var simPaperBuiltins = []string{"figure3", "policies", "bursty", "hotspot"}

// simPaperCells expands the sim-paper builtins at the budget seed of one
// input pass. The order is fixed: with two clients, which cells run side
// by side changes their times, so only the simulator seeds vary.
func simPaperCells(seed uint64, pass int) ([]eval.Scenario, error) {
	var cells []eval.Scenario
	for _, name := range simPaperBuiltins {
		spec, err := sweep.Builtin(name)
		if err != nil {
			return nil, err
		}
		spec.Budget = sweep.Quick
		spec.Budget.Seed = budgetSeed(seed, pass)
		scens, err := sweep.Expand(spec)
		if err != nil {
			return nil, err
		}
		cells = append(cells, scens...)
	}
	return cells, nil
}

// fleetGrid is one fleet-mixed request grid: BFT 64/256/1024 at the
// paper's 16/32/64-flit messages and 11 seeded fractions in (0.02, 0.9],
// model plus bounds — 99 cells. Warm grids come from their own stream so the
// pre-written set never collides with a new grid.
func fleetGrid(seed uint64, warm bool, idx int) sweep.Spec {
	stream := "fleet-cold"
	if warm {
		stream = "fleet-warm"
	}
	r := rngFor(seed, stream, idx)
	return sweep.Spec{
		Name:       fmt.Sprintf("%s-%d", stream, idx),
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}}},
		MsgFlits:   []int{16, 32, 64},
		Loads:      sweep.LoadSpec{Fracs: fracs(r, 11, 0.02, 0.9)},
		Backends:   []string{sweep.BackendModel, sweep.BackendBounds},
	}
}

// fleetWarmGrids is how many grids are pre-written to the shard stores.
const fleetWarmGrids = 12

// fleetPaths are the three client paths, taken round-robin.
var fleetPaths = []string{"remote", "batch", "dispatch"}

// fleetRequest maps request seq to its client path and grid: requests
// alternate three warm (stored) grids and three new ones, one per path.
func fleetRequest(seed uint64, seq int) (path string, warm bool, spec sweep.Spec) {
	block := seq / len(fleetPaths)
	path = fleetPaths[seq%len(fleetPaths)]
	warm = block%2 == 0
	n := block/2*len(fleetPaths) + seq%len(fleetPaths)
	if warm {
		n %= fleetWarmGrids
	}
	return path, warm, fleetGrid(seed, warm, n)
}

// planBuiltins are the plan builtins plan-search runs; calibrated-capacity
// is left out because it needs a mined calibration map.
func planBuiltins() []string {
	var out []string
	for _, name := range plan.Builtins() {
		if name != "calibrated-capacity" {
			out = append(out, name)
		}
	}
	return out
}

// planDoubled runs twice per pass. Its run times sit in the middle of the
// six builtins', so with seven requests a pass the median request lands
// inside one builtin's times instead of in the gap between two.
const planDoubled = "bft-capacity"

// planRounds is how many times a plan-search pass runs the builtins: the
// first pass is the cold sample, and three rounds make its median one of
// six bft-capacity runs rather than a single run.
const planRounds = 3

// planSpecs is one plan-search pass: the builtins in a fixed order, since
// which builtin pays the process's cold start would otherwise change with
// the seed. Their certification sims run at the budget seed of the
// workload seed's first input pass, as sim-paper's first pass does; every
// request of a run shares it, so each repeat of a builtin must reproduce
// its first result.
func planSpecs(seed uint64) ([]plan.Spec, error) {
	var out []plan.Spec
	for r := 0; r < planRounds; r++ {
		for _, name := range append(planBuiltins(), planDoubled) {
			spec, err := plan.Builtin(name)
			if err != nil {
				return nil, err
			}
			spec.Budget.Seed = budgetSeed(seed, 0)
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			out = append(out, spec)
		}
	}
	return out, nil
}
