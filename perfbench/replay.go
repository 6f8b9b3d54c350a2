package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
	wl "repro/internal/workload"
)

// The traced run sends a request's inputs through each layer's exported
// functions, one span per call, under the request span. The helpers here
// are shared by the workloads.

// serveRunner is the runner serve.New and plan.NewLocal build: the
// analytic model, the simulator and the bound calculus anchored on it,
// sharing memoized models and networks across requests.
func serveRunner(opts ...sweep.Option) *sweep.Runner {
	ab := eval.NewAnalyticBackend()
	return sweep.NewRunner(append([]sweep.Option{sweep.WithBackends(ab, eval.NewSimBackend(ab), bounds.New(ab))}, opts...)...)
}

// simClasses are the traffic classes sim.ns_per_msg is split by.
var simClasses = []string{"poisson", "mmpp", "hotspot", "randomfixed"}

// simClass names what a simulated cell's traffic stresses.
func simClass(sc eval.Scenario) string {
	switch {
	case sc.Workload != nil && sc.Workload.Process == wl.ProcessMMPP:
		return "mmpp"
	case sc.Workload != nil && sc.Workload.Pattern == wl.PatternHotspot:
		return "hotspot"
	case sc.Policy == sim.RandomFixed:
		return "randomfixed"
	}
	return "poisson"
}

// simConfig is the simulator configuration eval.SimBackend derives for a
// scenario at an absolute load, for the budgets the workloads use (fixed
// window, one replica, no trace file); a direct sim.Run of it must
// reproduce the backend's cell bit for bit.
func simConfig(net topology.Network, sc eval.Scenario, load float64) sim.Config {
	cfg := sim.Config{
		Net:           net,
		MsgFlits:      sc.MsgFlits,
		Pattern:       traffic.Uniform{},
		Seed:          sc.Seed(),
		WarmupCycles:  sc.Budget.Warmup,
		MeasureCycles: sc.Budget.Measure,
		DrainLimit:    sc.Budget.DrainLimit,
		Policy:        sc.Policy,
	}.FlitLoad(load)
	if sc.Workload != nil && !sc.Workload.IsDefault() {
		cfg.Workload = sc.Workload
	}
	return cfg
}

// directSim runs the scenario straight through sim.Run, building its
// topology first. With a tracer both calls are spans under parent.
func directSim(ctx context.Context, tr *tracer, parent int32, sc eval.Scenario, load float64) (*sim.Result, error) {
	var net topology.Network
	var err error
	tr.do(parent, "topology.build", strconv.Itoa(sc.Topology.Size), func() { net, err = sc.Topology.NewNetwork() })
	if err != nil {
		return nil, err
	}
	id := tr.begin(parent, "sim.run", simClass(sc))
	res, err := sim.Run(ctx, simConfig(net, sc, load))
	msgs := 1
	if err == nil && res.TotalCompleted > 0 {
		msgs = res.TotalCompleted
	}
	tr.end(id, msgs)
	return res, err
}

// sameSim reports whether a cell's simulated figures are bit-identical
// to a direct run's.
func sameSim(pt eval.Point, res *sim.Result) bool {
	return sameBits(pt.Sim, res.LatencyMean) && sameBits(pt.SimCI, res.LatencyCI95) && pt.SimSaturated == res.Saturated
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// closeTo compares two wire-carried figures: equal, both NaN, or within
// 1e-9 relative (the float-formatting tolerance the repository pins for
// results that cross the wire).
func closeTo(a, b float64) bool {
	if sameBits(a, b) || a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// coreBuilder is the channel-graph surface of the hypercube and torus
// models.
type coreBuilder interface {
	BuildCoreModel(lambda0 float64) *core.Model
}

// modelReplay is one curve's model side replayed through the analytic,
// core, queueing and bounds layers.
type modelReplay struct {
	sat  float64   // saturation load, flits/cycle/PE (NaN if not searched)
	lat  []float64 // predicted latency per load; +Inf past saturation
	load []float64 // absolute loads, flits/cycle/PE
	bnd  []float64 // worst-case bound per load (NaN unless withBounds)
}

// queueingReps is how many times each queueing formula is called per
// point: one call is tens of nanoseconds, too short to time alone.
const queueingReps = 200

// replayModel rebuilds the curve's model and evaluates it at the given
// loads. With fracs set, loads are fractions of the saturation load,
// which is searched first as the sweep's load anchor does.
func replayModel(tr *tracer, parent int32, topo eval.Topology, flits int, loads []float64, fracs, withBounds bool) (modelReplay, error) {
	fam := topo.Family
	var m eval.Model
	var err error
	tr.do(parent, "analytic.new_model", fam, func() { m, err = topo.NewModel(flits, core.Options{}) })
	if err != nil {
		return modelReplay{}, err
	}
	r := modelReplay{sat: math.NaN()}
	if fracs {
		tr.do(parent, "analytic.saturation", fam, func() { r.sat, err = m.SaturationLoad() })
		if err != nil {
			return modelReplay{}, err
		}
	}
	var pts []opPoint
	for _, l := range loads {
		if fracs {
			l *= r.sat
		}
		r.load = append(r.load, l)
		lambda0 := l / float64(flits)
		var lat analytic.Latency
		tr.do(parent, "analytic.latency", fam, func() { lat, err = m.Latency(lambda0) })
		switch {
		case err == nil:
			r.lat = append(r.lat, lat.Total)
			pts = append(pts, opPoint{lambda0, lat})
		case core.IsUnstable(err):
			r.lat = append(r.lat, math.Inf(1))
		default:
			return modelReplay{}, err
		}
		if cb, ok := m.(coreBuilder); ok {
			tr.do(parent, "core.resolve", fam, func() { _, err = cb.BuildCoreModel(lambda0).Resolve(core.Options{}) })
			if err != nil && !core.IsUnstable(err) {
				return modelReplay{}, err
			}
		}
		b := math.NaN()
		if withBounds && fam == eval.FamilyBFT {
			ft := m.(*analytic.FatTreeModel)
			burst, _ := bounds.Envelope(nil, lambda0)
			var rep bounds.Report
			tr.do(parent, "bounds.compute", "", func() { rep, err = bounds.Compute(ft, lambda0, burst) })
			switch {
			case err == nil:
				b = rep.Total
			case core.IsUnstable(err):
				b = math.Inf(1)
			default:
				return modelReplay{}, err
			}
		}
		r.bnd = append(r.bnd, b)
	}
	replayQueueing(tr, parent, pts, float64(flits))
	return r, nil
}

// opPoint is one stable operating point of a curve.
type opPoint struct {
	lambda0 float64
	lat     analytic.Latency
}

var queueingSink float64

// replayQueueing calls the wormhole waiting-time formulas at the curve's
// injection-channel operating points: M/G/1 for the injection channel,
// M/G/2 for a channel pair carrying twice the rate.
func replayQueueing(tr *tracer, parent int32, pts []opPoint, flits float64) {
	if len(pts) == 0 {
		return
	}
	var acc float64
	id := tr.begin(parent, "queueing.wait", "mg1")
	for i := 0; i < queueingReps; i++ {
		for _, p := range pts {
			acc += queueing.WaitWormholeMG1(p.lambda0, p.lat.ServiceInj, flits)
		}
	}
	tr.end(id, queueingReps*len(pts))
	id = tr.begin(parent, "queueing.wait", "mgm")
	for i := 0; i < queueingReps; i++ {
		for _, p := range pts {
			acc += queueing.WaitWormholeMGm(2, 2*p.lambda0, p.lat.ServiceInj, flits)
		}
	}
	tr.end(id, queueingReps*len(pts))
	queueingSink = acc
}

// replayEval sends a request's scenarios and points through the eval
// layer: cache keys, key parsing and the JSON wire codec. It fails when
// a key does not parse back or the codec does not round-trip a point.
func replayEval(tr *tracer, parent int32, scens []eval.Scenario, pts []eval.Point) error {
	if len(scens) == 0 {
		return nil
	}
	keys := make([]string, len(scens))
	id := tr.begin(parent, "eval.key", "")
	for i, sc := range scens {
		keys[i] = sc.Key()
	}
	tr.end(id, len(scens))
	parsed := make([]eval.ParsedKey, len(keys))
	var err error
	id = tr.begin(parent, "eval.parse_key", "")
	for i, k := range keys {
		if parsed[i], err = eval.ParseKey(k); err != nil {
			break
		}
	}
	tr.end(id, len(keys))
	if err != nil {
		return err
	}
	for i, p := range parsed {
		if p.Topology != scens[i].Topology || p.MsgFlits != scens[i].MsgFlits || p.Load != scens[i].Load {
			return fmt.Errorf("eval: key %q parses to other coordinates", keys[i])
		}
	}
	var sj, pj []byte
	tr.do(parent, "eval.wire_encode", "", func() {
		if sj, err = json.Marshal(scens); err == nil {
			pj, err = json.Marshal(pts)
		}
	})
	if err != nil {
		return err
	}
	var scens2 []eval.Scenario
	var pts2 []eval.Point
	tr.do(parent, "eval.wire_decode", "", func() {
		if err = json.Unmarshal(sj, &scens2); err == nil {
			err = json.Unmarshal(pj, &pts2)
		}
	})
	if err != nil {
		return err
	}
	for i := range pts {
		if !samePoint(pts[i], pts2[i]) {
			return fmt.Errorf("eval: wire codec does not round-trip point %d", i)
		}
	}
	return nil
}

// samePoint compares every figure of two cells (1e-9 relative, NaN-aware).
func samePoint(a, b eval.Point) bool {
	return closeTo(a.LoadFlits, b.LoadFlits) && closeTo(a.Model, b.Model) && a.ModelSaturated == b.ModelSaturated &&
		a.ModelNA == b.ModelNA && closeTo(a.Sim, b.Sim) && closeTo(a.SimCI, b.SimCI) &&
		a.SimSaturated == b.SimSaturated && closeTo(a.BoundMax, b.BoundMax) &&
		a.BoundUnbounded == b.BoundUnbounded && a.BoundNA == b.BoundNA
}

// mapeOf is the mean |model − sim| / sim, in percent, over the cells
// where both are finite and the model applies.
func mapeOf(pts []eval.Point) (float64, int) {
	var sum float64
	n := 0
	for _, p := range pts {
		if p.ModelNA || p.ModelSaturated || p.SimSaturated || math.IsNaN(p.Model) || math.IsNaN(p.Sim) ||
			math.IsInf(p.Model, 0) || math.IsInf(p.Sim, 0) || p.Sim <= 0 {
			continue
		}
		sum += math.Abs(p.Model-p.Sim) / p.Sim
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * sum / float64(n), n
}

// simulateSample evaluates the scenarios with the simulator and the
// model, two at a time, returning the merged cells. It is how workloads
// without simulated cells of their own measure model_sim_mape on their
// inputs, outside the timed window. Each cell gets its own budget seed:
// sharing one would correlate the simulator noise of cells at the same
// load position, and the noise near saturation dominates the mean.
func simulateSample(ctx context.Context, scens []eval.Scenario, seed uint64) ([]eval.Point, error) {
	ab := eval.NewAnalyticBackend()
	sb := eval.NewSimBackend(ab)
	out := make([]eval.Point, len(scens))
	errs := make([]error, len(scens))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc := scens[i]
				sc.WithSim = true
				sc.WithBounds = false
				sc.Budget = sweep.Quick
				sc.Budget.Seed = budgetSeed(seed, i)
				mp, err := ab.Evaluate(ctx, sc)
				if err != nil {
					errs[i] = err
					continue
				}
				sp, err := sb.Evaluate(ctx, sc)
				errs[i] = err
				out[i] = mp.Merge(sp)
			}
		}()
	}
	for i := range scens {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
