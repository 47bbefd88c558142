package main

import (
	"fmt"
	"runtime"
	"time"

	"parmsf"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// dense: the sparsification tree (Options.Sparsify, Workers = nproc) over a
// dense RandomSparse graph built at set-up. One client in a closed loop
// deletes a seeded random batch of live edges with DeleteEdges, then re-adds
// the same edges with InsertEdges. This is the only workload through the
// sparsification tree, its batch scheduler and the PRAM worker pool, so a
// change to any of them must show here.
//
// write = one DeleteEdges or InsertEdges call; ops_per_s counts edges.
// read = the query bundle after every batch. Every denseCheckEvery cycles
// the forest is checked against the oracle after the delete and after the
// re-insert (untimed). The PRAM depth and work counters are taken over
// exactly the first countBatches batches, so they repeat exactly per seed.

// denseRateChunk is how many consecutive batches one throughput sample
// spans.
const denseRateChunk = 8

type denseSize struct{ n, m, batch, checkEvery, countBatches int }

func denseSizeFor(tiny bool) denseSize {
	if tiny {
		return denseSize{n: 64, m: 600, batch: 8, checkEvery: 2, countBatches: 4}
	}
	return denseSize{n: 256, m: 8000, batch: 64, checkEvery: 8, countBatches: 16}
}

func runDense(cfg config) (*result, error) {
	sz := denseSizeFor(cfg.tiny)
	n := sz.n
	edges := toEdges(workload.RandomSparse(n, sz.m, cfg.seed))
	opt := parmsf.Options{Sparsify: true, Workers: runtime.GOMAXPROCS(0)}
	f, setup, err := buildRepeated(n, edges, opt)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := newResult()
	r.e2e["setup_s"] = setup
	full := kruskal(n, edges)
	qb := newBundle(n, cfg.seed)
	var ans answer

	start := time.Now()
	tr := newTracer(cfg.trace, start)
	rng := xrand.New(cfg.seed + 3)
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	chosen := make([]bool, len(edges))
	keys := make([]parmsf.EdgeKey, sz.batch)
	ins := make([]parmsf.Edge, sz.batch)
	mach := f.PRAM()
	pub0 := f.PublishStats()
	pubCount := pub0
	var mem memUse
	mem.start()
	var dels, adds, reads, depth, work []float64
	deadline := start.Add(cfg.dur)

	// readCheck reads the bundle, and on check cycles compares it with the
	// oracle of the current edge set.
	readCheck := func(cycle int, afterDelete bool) error {
		reads = append(reads, us(qb.read(f, &ans, tr)))
		if cycle%sz.checkEvery != 0 {
			return nil
		}
		o := full
		if afterDelete {
			var rest []parmsf.Edge
			for i, e := range edges {
				if !chosen[i] {
					rest = append(rest, e)
				}
			}
			o = kruskal(n, rest)
		}
		return qb.check(&ans, o)
	}
	// batch applies one DeleteEdges or InsertEdges call and records its
	// latency and, over the counted prefix, its PRAM cost.
	batch := func(del bool) (int, time.Duration) {
		t0, w0 := mach.Time, mach.Work
		start := time.Now()
		var errs []error
		if del {
			errs = f.DeleteEdges(keys)
		} else {
			errs = f.InsertEdges(ins)
		}
		d := time.Since(start)
		if len(depth) < sz.countBatches {
			depth = append(depth, float64(mach.Time-t0))
			work = append(work, float64(mach.Work-w0))
			if len(depth) == sz.countBatches {
				pubCount = f.PublishStats()
			}
		}
		return countErrs(errs), d
	}

	cycle := 0
	for ; cycle == 0 || len(depth) < sz.countBatches || time.Now().Before(deadline); cycle++ {
		// Partial Fisher-Yates: the first batch slots of idx become a fresh
		// uniform sample of distinct live edges.
		for j := 0; j < sz.batch; j++ {
			k := j + rng.Intn(len(idx)-j)
			idx[j], idx[k] = idx[k], idx[j]
			e := edges[idx[j]]
			keys[j] = parmsf.EdgeKey{U: e.U, V: e.V}
			ins[j] = e
			chosen[idx[j]] = true
		}
		bad, d := batch(true)
		dels = append(dels, us(d))
		r.attempted += sz.batch
		r.failed += bad
		if err := readCheck(cycle, true); err != nil {
			return r, fmt.Errorf("cycle %d after DeleteEdges: %w", cycle, err)
		}
		bad, d = batch(false)
		adds = append(adds, us(d))
		r.attempted += sz.batch
		r.failed += bad
		for j := 0; j < sz.batch; j++ {
			chosen[idx[j]] = false
		}
		if err := readCheck(cycle, false); err != nil {
			return r, fmt.Errorf("cycle %d after InsertEdges: %w", cycle, err)
		}
		if r.failed > 0 {
			return r, fmt.Errorf("cycle %d: %d of %d edge updates failed", cycle, r.failed, r.attempted)
		}
	}
	mem.stop()
	if cfg.trace {
		mem.perOp(r.attempted, r.layer)
	}
	if err := qb.checkForest(f, n, edges); err != nil {
		return r, fmt.Errorf("final state: %w", err)
	}

	// Batch latencies in time order: each cycle's delete, then its insert.
	lat := make([]float64, 0, 2*len(dels))
	for i := range dels {
		lat = append(lat, dels[i], adds[i])
	}
	r.e2e["ops_per_s"] = medianRate(lat, denseRateChunk, float64(sz.batch))
	r.e2e["write_p50_us"] = stats.Percentile(lat, 50)
	r.e2e["write_p90_us"] = windowP90(lat)
	r.e2e["read_p50_us"] = stats.Percentile(reads, 50)
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.note("setup_s", setup, "s")
	r.note("ops_per_s", r.e2e["ops_per_s"], "1/s")
	r.note("batch_p50_ms", r.e2e["write_p50_us"]/1e3, "ms")
	r.note("batch_p90_ms", stats.Percentile(lat, 90)/1e3, "ms")
	r.note("read_p50_us", r.e2e["read_p50_us"], "us")
	r.note("read_p90_us", stats.Percentile(reads, 90), "us")
	r.note("live_heap_mb", r.e2e["live_heap_mb"], "MB")
	r.note("cycles", float64(cycle), "count")

	if cfg.trace {
		r.layer["parmsf.delete_batch_p50_ms"] = stats.Percentile(dels, 50) / 1e3
		r.layer["parmsf.insert_batch_p50_ms"] = stats.Percentile(adds, 50) / 1e3
		r.layer["pram.depth_per_batch"] = stats.Mean(depth)
		r.layer["pram.work_per_batch"] = stats.Mean(work)
		snapshotLayer(pub0, pubCount, f.PublishStats(), tr, r.layer)
	}
	return r, nil
}
