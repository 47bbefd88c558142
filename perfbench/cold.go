package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"parmsf"
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/snapshot"
	"parmsf/internal/stats"
	"parmsf/internal/ternary"
	"parmsf/internal/workload"
)

// cold: Build of a RandomSparse graph with Workers = nproc, then
// ArmFault("core/apply-batch"), one DeleteEdges batch that poisons the
// forest, and Recover, which reloads the live-edge journal through the
// same bulk path. This is the bulk path — sort, filter-Kruskal, BulkLoad,
// link-cut linking and GC — with no ingest, no per-op core work and no
// delta publication.
//
// write = one Build or one Recover; ops_per_s counts edges loaded per
// second across both. read = a query bundle, coldReads of them after each
// load. setup = New and Close of an empty forest of the same size (the
// engine allocation every cold start pays). Each load is checked against
// the oracle: Recover must restore the state from before the poisoned
// batch. At n = 10000, m = 50000 a load takes about a second, so a run
// holds some twenty of them and write_p90_us is not the slowest one or
// two; the heap (about 140 MB) stays within what the host's memory
// latency moves by less than the gate's bound.
//
// The traced run also times, on the same edges, the layers under Build:
// batch.Sort on a worker-pool machine, ternary.New over the parallel core
// engine, and Wrapper.BulkLoad with the oracle's forest flags.

const coldReads = 64

type coldSize struct{ n, m int }

func coldSizeFor(tiny bool) coldSize {
	if tiny {
		return coldSize{n: 500, m: 2500}
	}
	return coldSize{n: 10000, m: 50000}
}

func runCold(cfg config) (*result, error) {
	sz := coldSizeFor(cfg.tiny)
	n := sz.n
	edges := toEdges(workload.RandomSparse(n, sz.m, cfg.seed))
	oracle := kruskal(n, edges)
	workers := runtime.GOMAXPROCS(0)
	opt := parmsf.Options{Workers: workers, MaxEdges: len(edges), FaultPoints: []string{}}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := parmsf.New(n, opt)
		if err != nil {
			return nil, fmt.Errorf("new: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		f.Close()
	}
	r := newResult()
	r.e2e["setup_s"] = stats.Percentile(setups, 50)

	// The poisoning batch deletes one forest edge; Recover must bring it
	// back.
	var victim parmsf.EdgeKey
	for i, e := range edges {
		if oracle.tree[i] {
			victim = parmsf.EdgeKey{U: e.U, V: e.V}
			break
		}
	}
	// Each of a load's reads uses its own bundle: a freshly built forest has
	// nothing else in flight, and one bundle read back to back would time
	// only the first level of cache.
	bundles := make([]bundle, coldReads)
	for i := range bundles {
		bundles[i] = newBundle(n, cfg.seed+uint64(i))
	}
	var ans answer
	start := time.Now()
	tr := newTracer(cfg.trace, start)
	var mem memUse
	var builds, recovers, reads []float64
	var pub snapshot.Stats
	// The reads after a load start from a collected heap, so no collection
	// of the load's garbage runs beside them; the Recover after them starts
	// from one too, like the Build before them.
	readsChecked := func(f *parmsf.Forest) error {
		runtime.GC()
		for _, b := range bundles {
			reads = append(reads, us(b.read(f, &ans, tr)))
			if err := b.check(&ans, oracle); err != nil {
				return err
			}
		}
		return nil
	}

	var last *parmsf.Forest
	deadline := start.Add(cfg.dur)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		if last != nil {
			last.Close()
			last = nil
		}
		if cfg.trace {
			if err := probeBulkLayers(n, edges, oracle, workers, tr); err != nil {
				return r, err
			}
		}
		// Each Build starts from a collected heap, as a fresh process does.
		runtime.GC()
		mem.start()
		t0 := time.Now()
		f, errs, err := parmsf.Build(n, edges, opt)
		builds = append(builds, us(time.Since(t0)))
		mem.stop()
		r.attempted++
		if err != nil || errs != nil {
			r.failed++
			return r, fmt.Errorf("cycle %d build: %v %v", cycle, err, firstErr(errs))
		}
		last = f
		if err := readsChecked(f); err != nil {
			return r, fmt.Errorf("cycle %d after build: %w", cycle, err)
		}
		if err := f.ArmFault("core/apply-batch"); err != nil {
			return r, fmt.Errorf("arm fault: %w", err)
		}
		perrs := f.DeleteEdges([]parmsf.EdgeKey{victim})
		if len(perrs) != 1 || !errors.Is(perrs[0], parmsf.ErrPoisoned) {
			return r, fmt.Errorf("cycle %d: poisoning batch returned %v, want ErrPoisoned", cycle, perrs)
		}
		mem.start()
		t1 := time.Now()
		err = f.Recover()
		recovers = append(recovers, us(time.Since(t1)))
		mem.stop()
		r.attempted++
		if err != nil || f.Poisoned() != nil {
			r.failed++
			return r, fmt.Errorf("cycle %d recover: %v", cycle, err)
		}
		if err := readsChecked(f); err != nil {
			return r, fmt.Errorf("cycle %d after recover: %w", cycle, err)
		}
		st := f.PublishStats()
		pub.Epochs += st.Epochs
		pub.DeltaEpochs += st.DeltaEpochs
		pub.Rebases += st.Rebases
		pub.PublishNs += st.PublishNs
	}
	if cfg.trace {
		mem.perOp(r.attempted, r.layer)
	}

	loads := append(append([]float64(nil), builds...), recovers...)
	r.e2e["ops_per_s"] = medianRate(loads, 1, float64(len(edges)))
	r.e2e["write_p50_us"] = stats.Percentile(loads, 50)
	r.e2e["write_p90_us"] = windowP90(loads)
	r.e2e["read_p50_us"] = stats.Percentile(reads, 50)
	r.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	last.Close()
	r.note("setup_s", r.e2e["setup_s"], "s")
	r.note("build_s", stats.Percentile(builds, 50)/1e6, "s")
	r.note("recover_s", stats.Percentile(recovers, 50)/1e6, "s")
	r.note("edges_per_s", r.e2e["ops_per_s"], "1/s")
	r.note("read_p50_us", r.e2e["read_p50_us"], "us")
	r.note("read_p90_us", stats.Percentile(reads, 90), "us")
	r.note("live_heap_mb", r.e2e["live_heap_mb"], "MB")
	r.note("cycles", float64(len(builds)), "count")

	if cfg.trace {
		r.layer["batch.sort_ms"] = stats.Percentile(tr.durations("batch.sort"), 50) / 1e3
		r.layer["ternary.new_ms"] = stats.Percentile(tr.durations("ternary.new"), 50) / 1e3
		r.layer["ternary.bulkload_ms"] = stats.Percentile(tr.durations("ternary.bulkload"), 50) / 1e3
		snapshotLayer(snapshot.Stats{}, pub, pub, tr, r.layer)
	}
	return r, nil
}

// probeBulkLayers times the layers under Build on edges, each through its
// own entry point: the parallel merge sort, the construction of the
// ternary wrapper over the parallel core engine (as a Workers forest
// composes it), and the wrapper's bulk load in Build's order with the
// oracle's forest flags.
func probeBulkLayers(n int, edges []parmsf.Edge, o *msf, workers int, tr *tracer) error {
	items := make([]batch.Item, len(edges))
	for i, e := range edges {
		items[i] = batch.Item{Key: e.W, A: e.U, B: e.V, Idx: i}
	}
	mach := pram.NewParallel(workers)
	defer mach.Close()
	t0 := time.Now()
	batch.Sort(mach, items)
	tr.record("batch.sort", t0, time.Now())

	ordered, flags := o.treeFirst(edges)
	bes := make([]ternary.BatchEdge, len(ordered))
	for i, e := range ordered {
		bes[i] = ternary.BatchEdge{U: e.U, V: e.V, W: e.W}
	}
	t1 := time.Now()
	tw := ternary.New(n, len(edges), func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.PRAMCharger{M: mach})
	})
	tw.SetEvents(func(u, v int, w int64, added bool) {})
	tw.SetCutSides(func(side []int32) {})
	t2 := time.Now()
	errs := tw.BulkLoad(bes, flags)
	t3 := time.Now()
	tr.record("ternary.new", t1, t2)
	tr.record("ternary.bulkload", t2, t3)
	if err := firstErr(errs); err != nil {
		return fmt.Errorf("probe bulk load: %w", err)
	}
	if tw.Weight() != o.weight {
		return fmt.Errorf("probe bulk load weight %d, oracle %d", tw.Weight(), o.weight)
	}
	return nil
}
