package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// fleet-mixed: two in-process sweepd shards, each serve.New over a
// store.Open'd segment store behind httptest; one client sends seeded
// ~100-cell model+bounds BFT grids one at a time, round-robin over the
// three client paths in use (per-cell /v1/eval, /v1/batch, dispatched
// /v1/sweep/part ranges). Half the grids are already stored (reads), half
// are new (compute plus store Put). Model compute is microseconds, so
// transport, codec, keys, store and dispatch do the work.

const shards = 2

// fleetMapeGrids is how many new grids the mape sample simulates: two per
// client path, 198 cells.
const fleetMapeGrids = 6

type fleet struct {
	seed    uint64
	stores  [shards]*store.Store
	servers [shards]*httptest.Server
	remote  *sweep.Runner
	batch   *sweep.Runner
	disp    *dispatch.Dispatcher
	opens   []time.Duration

	// In the traced run, shard-side store calls are recorded as spans
	// under the client call in flight (one client, one call at a time).
	tr     atomic.Pointer[tracer]
	parent atomic.Int32
}

// fleetOut is what a fleet-mixed request returned, kept compact: a run
// holds a thousand of them, and the benchmark's own memory should not
// drown the program's in max_rss_mb.
type fleetOut struct {
	spec  sweep.Spec
	cells []cellVals
}

// cellVals are the figures a model+bounds cell carries.
type cellVals struct {
	load, model, bound float64
	flags              uint8
}

func valsOf(p eval.Point) cellVals {
	v := cellVals{load: p.LoadFlits, model: p.Model, bound: p.BoundMax}
	for i, b := range []bool{p.ModelSaturated, p.ModelNA, p.BoundUnbounded, p.BoundNA, !math.IsNaN(p.Sim) || p.SimSaturated} {
		if b {
			v.flags |= 1 << i
		}
	}
	return v
}

func (a cellVals) same(b cellVals) bool {
	return closeTo(a.load, b.load) && closeTo(a.model, b.model) && closeTo(a.bound, b.bound) && a.flags == b.flags
}

func outOfFleet(spec sweep.Spec, rows []sweep.Row) fleetOut {
	o := fleetOut{spec: spec, cells: make([]cellVals, len(rows))}
	for i, r := range rows {
		o.cells[i] = valsOf(r.Cell)
	}
	return o
}

func shardDir(cfg config, i int) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("shard%d", i))
}

// warmupGrid is a one-curve grid stored with the warm grids; set-up runs
// it through every client path so connections and lazy state exist
// before timing.
func warmupGrid() sweep.Spec {
	return sweep.Spec{
		Name:       "fleet-warmup",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
		Backends:   []string{sweep.BackendModel, sweep.BackendBounds},
	}
}

// prepareFleet pre-writes the grids that will be repeated into both
// shard stores, before set-up is timed, under the keys a shard's runner
// stores them.
func prepareFleet(ctx context.Context, cfg config) error {
	r := serveRunner()
	keys := make(map[string]eval.Point)
	grids := []sweep.Spec{warmupGrid()}
	for i := 0; i < fleetWarmGrids; i++ {
		grids = append(grids, fleetGrid(cfg.seed, true, i))
	}
	for _, g := range grids {
		scens, err := sweep.Expand(g)
		if err != nil {
			return err
		}
		for _, sc := range scens {
			cell, _, err := r.Evaluate(ctx, sc)
			if err != nil {
				return err
			}
			keys[r.CacheKey(sc)] = cell
		}
	}
	for i := 0; i < shards; i++ {
		st, err := store.Open(shardDir(cfg, i))
		if err != nil {
			return err
		}
		for k, cell := range keys {
			st.Put(k, cell)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// tracedStore is the shard's cache: the store itself, with each Get and
// Put recorded as a span while a traced request is in flight.
type tracedStore struct {
	st *store.Store
	f  *fleet
}

func (s tracedStore) Get(key string) (eval.Point, bool) {
	tr, parent := s.f.tr.Load(), s.f.parent.Load()
	if tr == nil || parent == 0 {
		return s.st.Get(key)
	}
	id := tr.begin(parent, "store.get", "")
	pt, ok := s.st.Get(key)
	tr.end(id, 1)
	return pt, ok
}

func (s tracedStore) Put(key string, pt eval.Point) {
	tr, parent := s.f.tr.Load(), s.f.parent.Load()
	if tr == nil || parent == 0 {
		s.st.Put(key, pt)
		return
	}
	id := tr.begin(parent, "store.put", "")
	s.st.Put(key, pt)
	tr.end(id, 1)
}

func setupFleet(ctx context.Context, cfg config) (instance, error) {
	f := &fleet{seed: cfg.seed}
	var addrs []string
	for i := 0; i < shards; i++ {
		start := time.Now()
		st, err := store.Open(shardDir(cfg, i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.opens = append(f.opens, time.Since(start))
		f.stores[i] = st
		f.servers[i] = httptest.NewServer(serve.New(serve.WithCache(tracedStore{st: st, f: f})))
		addrs = append(addrs, f.servers[i].URL)
	}
	rb, err := eval.NewRemoteBackend(addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	f.remote = sweep.NewRunner(sweep.WithBackends(rb))
	// The batched transport coalesces concurrent cells; a pool as wide as
	// the batch fills each coalescing window.
	bb, err := eval.NewBatchBackend(addrs, eval.WithBatchSize(32))
	if err != nil {
		f.close()
		return nil, err
	}
	f.batch = sweep.NewRunner(sweep.WithBackends(bb), sweep.WithWorkers(32))
	if f.disp, err = dispatch.New(addrs); err != nil {
		f.close()
		return nil, err
	}
	for _, path := range fleetPaths {
		if _, err := f.run(ctx, path, warmupGrid()); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up over %s: %w", path, err)
		}
	}
	return f, nil
}

func (f *fleet) run(ctx context.Context, path string, spec sweep.Spec) (*sweep.Result, error) {
	switch path {
	case "remote":
		return f.remote.Run(ctx, spec)
	case "batch":
		return f.batch.Run(ctx, spec)
	default:
		return f.disp.Run(ctx, spec)
	}
}

func (f *fleet) request(ctx context.Context, seq int) sample {
	path, warm, spec := fleetRequest(f.seed, seq)
	start := time.Now()
	res, err := f.run(ctx, path, spec)
	s := sample{lat: time.Since(start), kind: path, cold: !warm, err: err}
	if err == nil {
		s.cells = len(res.Rows)
		s.out = outOfFleet(spec, res.Rows)
	}
	return s
}

func (f *fleet) traced(ctx context.Context, tr *tracer, seq int) sample {
	f.tr.Store(tr)
	defer f.parent.Store(0)
	path, warm, spec := fleetRequest(f.seed, seq)
	req := tr.begin(0, "bench.request", path)
	defer tr.end(req, 1)
	var res *sweep.Result
	var err error
	top := tr.begin(req, "client."+path, "")
	f.parent.Store(top)
	start := time.Now()
	res, err = f.run(ctx, path, spec)
	s := sample{top: time.Since(start), kind: path, cold: !warm, err: err}
	tr.end(top, 1)
	f.parent.Store(req)
	if err != nil {
		return s
	}
	s.cells = len(res.Rows)
	s.out = outOfFleet(spec, res.Rows)
	var scens []eval.Scenario
	tr.do(req, "sweep.expand", "", func() { scens, err = sweep.Expand(spec) })
	if err == nil {
		pts := make([]eval.Point, len(res.Rows))
		for i, r := range res.Rows {
			pts[i] = r.Cell
		}
		err = replayEval(tr, req, scens, pts)
	}
	if err == nil {
		err = f.replayServe(tr, req, spec, scens, res.Rows)
	}
	if err == nil {
		err = replayGridModel(tr, req, spec, res.Rows)
	}
	s.err = err
	return s
}

// replayServe posts the request's cells straight to the first shard on
// each endpoint and checks the answers against the client's rows.
func (f *fleet) replayServe(tr *tracer, parent int32, spec sweep.Spec, scens []eval.Scenario, rows []sweep.Row) error {
	url := f.servers[0].URL
	post := func(name, endpoint string, body any, check func([]byte) error) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		id := tr.begin(parent, name, "")
		f.parent.Store(id)
		resp, err := http.Post(url+endpoint, "application/json", bytes.NewReader(data))
		var out []byte
		if err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: %s: %s", endpoint, resp.Status, out)
			}
		}
		tr.end(id, 1)
		f.parent.Store(parent)
		if err != nil {
			return err
		}
		return check(out)
	}
	err := post("serve.eval", "/v1/eval", scens[0], func(out []byte) error {
		var pt eval.Point
		if err := json.Unmarshal(out, &pt); err != nil {
			return err
		}
		if !samePoint(pt, rows[0].Cell) {
			return fmt.Errorf("/v1/eval answers %+v, the client row is %+v", pt, rows[0].Cell)
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkItems := func(out []byte) error {
		n := 0
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			var it eval.BatchItem
			if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
				return err
			}
			if it.Index < 0 {
				continue
			}
			if it.Error != "" || it.Point == nil || it.Index >= len(rows) || !samePoint(*it.Point, rows[it.Index].Cell) {
				return fmt.Errorf("shard item %d disagrees with the client row (%s)", it.Index, it.Error)
			}
			n++
		}
		if n != len(rows) {
			return fmt.Errorf("shard answered %d of %d cells", n, len(rows))
		}
		return sc.Err()
	}
	if err := post("serve.batch", "/v1/batch", scens, checkItems); err != nil {
		return err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	part := map[string]any{"spec": json.RawMessage(specJSON), "start": 0, "end": len(scens)}
	return post("serve.sweep_part", "/v1/sweep/part", part, checkItems)
}

// replayGridModel replays each curve of a BFT grid through the analytic,
// queueing and bounds layers and checks it against the rows.
func replayGridModel(tr *tracer, parent int32, spec sweep.Spec, rows []sweep.Row) error {
	i := 0
	for _, size := range spec.Topologies[0].Sizes {
		for _, flits := range spec.MsgFlits {
			topo := eval.Topology{Family: eval.FamilyBFT, Size: size}
			rep, err := replayModel(tr, parent, topo, flits, spec.Loads.Fracs, true, true)
			if err != nil {
				return err
			}
			for j := range rep.lat {
				r := rows[i+j]
				if !closeTo(rep.lat[j], r.Model) || !closeTo(rep.bnd[j], r.BoundMax) {
					return fmt.Errorf("%s point %d: direct model %v bound %v, the fleet %v bound %v",
						r.Scenario.CurveKey(), j, rep.lat[j], rep.bnd[j], r.Model, r.BoundMax)
				}
			}
			i += len(rep.lat)
		}
	}
	return nil
}

// verify: on all three client paths every row equals an in-process
// sweep.Runner result for the same grid, computed here, outside the
// timed window.
func (f *fleet) verify(ctx context.Context, samples []sample) (verdict, error) {
	warmRefs := make(map[string][]cellVals)
	var newGrids []sweep.Spec
	for _, s := range samples {
		if s.err != nil {
			return verdict{}, fmt.Errorf("request %d (%s): %w", s.seq, s.kind, s.err)
		}
		o := s.out.(fleetOut)
		ref, ok := warmRefs[o.spec.Name]
		if !ok {
			res, err := (&sweep.Runner{}).Run(ctx, o.spec)
			if err != nil {
				return verdict{}, err
			}
			ref = outOfFleet(o.spec, res.Rows).cells
			if s.cold {
				newGrids = append(newGrids, o.spec)
			} else {
				warmRefs[o.spec.Name] = ref
			}
		}
		if len(o.cells) != len(ref) {
			return verdict{}, fmt.Errorf("request %d (%s): %d rows, want %d", s.seq, s.kind, len(o.cells), len(ref))
		}
		for i := range o.cells {
			if !o.cells[i].same(ref[i]) {
				return verdict{}, fmt.Errorf("request %d (%s) row %d: %+v, in-process %+v",
					s.seq, s.kind, i, o.cells[i], ref[i])
			}
		}
	}
	if len(newGrids) < fleetMapeGrids {
		return verdict{}, fmt.Errorf("%d new grids requested, need %d", len(newGrids), fleetMapeGrids)
	}
	// The mape sample: the 64-PE cells of the first new grids, simulated.
	var sample []eval.Scenario
	for _, g := range newGrids[:fleetMapeGrids] {
		scens, err := sweep.Expand(g)
		if err != nil {
			return verdict{}, err
		}
		for _, sc := range scens {
			if sc.Topology.Size == 64 {
				sample = append(sample, sc)
			}
		}
	}
	pts, err := simulateSample(ctx, sample, f.seed)
	if err != nil {
		return verdict{}, err
	}
	mape, pairs := mapeOf(pts)
	hits, lookups := f.storeStats()
	return verdict{mape: mape, pairs: pairs, notes: map[string]any{
		"new_grids_checked":    len(newGrids),
		"store.hit_ratio.base": map[string]int64{"hits": hits, "lookups": lookups},
	}}, nil
}

// storeStats sums the shard stores' lifetime hits and lookups.
func (f *fleet) storeStats() (hits, lookups int64) {
	for _, st := range f.stores {
		h, m := st.Stats()
		hits += h
		lookups += h + m
	}
	return hits, lookups
}

func (f *fleet) layers(ix *spanIndex, samples []sample) map[string]float64 {
	hits, lookups := f.storeStats()
	var opens []float64
	for _, d := range f.opens {
		opens = append(opens, float64(d)/float64(time.Millisecond))
	}
	ds := f.disp.Stats()
	return map[string]float64{
		"store.open_ms":     median(opens),
		"store.hit_ratio":   ratio{hits, lookups}.value(),
		"dispatch.requeues": float64(ds.Requeues),
		"dispatch.failures": float64(ds.ShardFailures),
	}
}

func (f *fleet) close() {
	for i := range f.servers {
		if f.servers[i] != nil {
			f.servers[i].Close()
		}
		if f.stores[i] != nil {
			f.stores[i].Close()
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
