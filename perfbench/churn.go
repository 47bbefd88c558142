package main

import (
	"fmt"
	"time"

	"parmsf"
	"parmsf/internal/core"
	"parmsf/internal/stats"
	"parmsf/internal/ternary"
	"parmsf/internal/workload"
)

// churn: one client in a closed loop issues synchronous Insert/Delete on a
// RandomSparse graph with m = 2n (a giant component), loaded by Build at
// set-up, with default Options. Most CPU time goes to the core structure's
// tree surgery, so core-layout work shows here; ingest is bypassed, so an
// ingest change must leave this workload unchanged.
//
// write = one synchronous Insert or Delete call. read = the query bundle,
// every churnReadEvery ops. Every churnCheckEvery ops the forest is checked
// against the oracle of the replayed edge set (untimed).
//
// The traced run replays the same ops on a standalone ternary-over-core
// twin — the two layers under the Forest API — loaded with the same edges
// in Build's order, one block of churnRateChunk ops behind the Forest, so
// both see the same host conditions and each runs a block with its own
// data in cache. The twin gives the ternary op times and the core
// counters; the API's own time is the mean Forest op time minus the
// twin's minus the publication time per op. Counters cover exactly the
// first countOps ops, so two runs with one seed report identical counts.

const (
	churnReadEvery = 8
	// churnRateChunk is how many consecutive ops one throughput sample
	// spans.
	churnRateChunk = 256
	// churnMaxRate sizes the generated stream: ops per measured second the
	// loop could reach before running out of input.
	churnMaxRate = 10000
)

type churnSize struct{ n, checkEvery, countOps int }

func churnSizeFor(tiny bool) churnSize {
	if tiny {
		return churnSize{n: 128, checkEvery: 32, countOps: 64}
	}
	return churnSize{n: 4096, checkEvery: 512, countOps: 1000}
}

func runChurn(cfg config) (*result, error) {
	sz := churnSizeFor(cfg.tiny)
	n := sz.n
	base := workload.RandomSparse(n, 2*n, cfg.seed)
	edges := toEdges(base)
	steps := int(cfg.dur.Seconds()*churnMaxRate) + sz.countOps
	ops := workload.Churn(n, base, steps, false, cfg.seed+1).Ops[len(base):]

	f, setup, err := buildRepeated(n, edges, parmsf.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := newResult()
	r.e2e["setup_s"] = setup

	live := newLiveSet(edges)
	qb := newBundle(n, cfg.seed)
	var ans answer
	start := time.Now()
	tr := newTracer(cfg.trace, start)
	var twin *ternary.Wrapper
	var stats0, statsCount core.Stats
	twinDone := 0
	// replay brings the twin up to the Forest's first upto ops.
	replay := func(upto int) error {
		for ; twinDone < upto; twinDone++ {
			op := ops[twinDone]
			t0 := time.Now()
			var err error
			if op.Kind == workload.OpInsert {
				err = twin.InsertEdge(op.U, op.V, op.W)
			} else {
				err = twin.DeleteEdge(op.U, op.V)
			}
			tr.record("ternary.op", t0, time.Now())
			if err != nil {
				return fmt.Errorf("twin op %d %+v: %w", twinDone, op, err)
			}
			if twinDone+1 == sz.countOps {
				statsCount = twinStats(twin)
			}
		}
		return nil
	}
	if cfg.trace {
		if twin, err = loadTwin(n, live.edges); err != nil {
			return r, err
		}
		stats0 = twinStats(twin)
	}
	deadline := start.Add(cfg.dur)
	pub0 := f.PublishStats()
	pubCount := pub0
	var mem memUse
	mem.start()

	lat := make([]float64, 0, 1<<16)
	var reads []float64
	done := 0
	for i, op := range ops {
		if i >= sz.countOps && time.Now().After(deadline) {
			break
		}
		want := live.apply(op)
		t0 := time.Now()
		var err error
		if op.Kind == workload.OpInsert {
			err = f.Insert(op.U, op.V, op.W)
		} else {
			err = f.Delete(op.U, op.V)
		}
		t1 := time.Now()
		lat = append(lat, us(t1.Sub(t0)))
		tr.record("parmsf.op", t0, t1)
		done++
		r.attempted++
		if err != nil {
			r.failed++
		}
		if (err == nil) != want {
			return r, fmt.Errorf("op %d %+v: error %v, oracle expects success=%v", i, op, err, want)
		}
		if done == sz.countOps {
			pubCount = f.PublishStats()
		}
		if twin != nil && done%churnRateChunk == 0 {
			mem.stop() // the twin's allocations are not the Forest's
			if err := replay(done); err != nil {
				return r, err
			}
			mem.start()
		}
		if i%churnReadEvery == 0 {
			reads = append(reads, us(qb.read(f, &ans, tr)))
		}
		if (i+1)%sz.checkEvery == 0 {
			if err := qb.checkForest(f, n, live.edges); err != nil {
				return r, fmt.Errorf("after op %d: %w", i, err)
			}
		}
	}
	pubEnd := f.PublishStats()
	mem.stop()
	if cfg.trace {
		mem.perOp(done, r.layer)
	}
	if err := qb.checkForest(f, n, live.edges); err != nil {
		return r, fmt.Errorf("final state: %w", err)
	}

	if twin != nil {
		if err := replay(done); err != nil {
			return r, err
		}
		if twin.Weight() != f.Weight() || twin.ForestSize() != f.Size() {
			return r, fmt.Errorf("twin weight/size %d/%d, forest %d/%d", twin.Weight(), twin.ForestSize(), f.Weight(), f.Size())
		}
	}
	ops = nil // the generated stream is not part of the measured heap

	r.e2e["ops_per_s"] = medianRate(lat, churnRateChunk, 1)
	r.e2e["write_p50_us"] = stats.Percentile(lat, 50)
	r.e2e["write_p90_us"] = windowP90(lat)
	r.e2e["read_p50_us"] = stats.Percentile(reads, 50)
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.note("setup_s", setup, "s")
	r.note("ops_per_s", r.e2e["ops_per_s"], "1/s")
	r.note("op_p50_us", r.e2e["write_p50_us"], "us")
	r.note("op_p99_us", stats.Percentile(lat, 99), "us")
	r.note("read_p50_us", r.e2e["read_p50_us"], "us")
	r.note("read_p90_us", stats.Percentile(reads, 90), "us")
	r.note("live_heap_mb", r.e2e["live_heap_mb"], "MB")
	r.note("ops", float64(done), "count")
	if twin == nil {
		return r, nil
	}

	tern := tr.durations("ternary.op")
	pubPerOp := float64(pubEnd.PublishNs-pub0.PublishNs) / 1e3 / float64(done)
	r.layer["ternary.op_p50_us"] = stats.Percentile(tern, 50)
	r.layer["ternary.op_p99_us"] = stats.Percentile(tern, 99)
	r.layer["parmsf.api_us_per_op"] = stats.Mean(tr.durations("parmsf.op")) - stats.Mean(tern) - pubPerOp
	coreCounts(statsCount, stats0, sz.countOps, r.layer)
	snapshotLayer(pub0, pubCount, pubEnd, tr, r.layer)
	r.note("publish_us_per_op", pubPerOp, "us")
	r.note("op_mean_us", stats.Mean(tr.durations("parmsf.op")), "us")
	r.note("ternary_mean_us", stats.Mean(tern), "us")
	return r, nil
}

// loadTwin builds a ternary wrapper over the sequential core engine — the
// engine stack a default-Options Forest composes — and bulk-loads edges in
// Build's order. Its event and cut-side hooks are set, as the Forest sets
// them, so the core does the same cut-side work per op.
func loadTwin(n int, edges []parmsf.Edge) (*ternary.Wrapper, error) {
	tw := ternary.New(n, 4*n, func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.SeqCharger{})
	})
	tw.SetEvents(func(u, v int, w int64, added bool) {})
	tw.SetCutSides(func(side []int32) {})
	ordered, flags := kruskal(n, edges).treeFirst(edges)
	items := make([]ternary.BatchEdge, len(ordered))
	for i, e := range ordered {
		items[i] = ternary.BatchEdge{U: e.U, V: e.V, W: e.W}
	}
	if err := firstErr(tw.BulkLoad(items, flags)); err != nil {
		return nil, fmt.Errorf("twin bulk load: %w", err)
	}
	return tw, nil
}

func twinStats(tw *ternary.Wrapper) core.Stats {
	return tw.Gadget().(*core.MSF).Store().Stats()
}

// coreCounts reports the core structure's work counters per op over the
// counted prefix.
func coreCounts(end, begin core.Stats, ops int, layer map[string]float64) {
	per := func(a, b int64) float64 { return float64(a-b) / float64(ops) }
	layer["core.row_rebuilds_per_op"] = per(end.RowRebuilds, begin.RowRebuilds)
	layer["core.chunk_splits_per_op"] = per(end.ChunkSplits, begin.ChunkSplits)
	layer["core.chunk_merges_per_op"] = per(end.ChunkMerges, begin.ChunkMerges)
	layer["core.column_sweeps_per_op"] = per(end.ColumnSweeps, begin.ColumnSweeps)
	layer["core.path_refreshes_per_op"] = per(end.PathRefreshes, begin.PathRefreshes)
	layer["core.mwr_queries_per_op"] = per(end.MWRQueries, begin.MWRQueries)
	layer["core.tour_links_per_op"] = per(end.TourLinks, begin.TourLinks)
	layer["core.tour_cuts_per_op"] = per(end.TourCuts, begin.TourCuts)
}
