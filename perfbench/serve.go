package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"parmsf"
	"parmsf/internal/ingest"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// serve: an open loop of Poisson arrivals at a fixed offered rate through
// Submit, on a SlidingWindow stream (window n/4: a subcritical graph with
// small components, so engine ops are cheap and the ingest queue, snapshot
// publication and the read plane dominate). n = 16384 keeps the heap near
// 65 MB, far beyond the per-core caches; at n = 65536 (a 260 MB heap) run
// medians moved with the host's memory latency by more than the gate's
// bound. Every step inserts one edge and deletes one, so op kinds
// alternate. Between arrivals the generator, as the paced reader, acquires
// a snapshot and answers the query bundle every serveReadEvery. A
// closed-loop burst phase follows, one producer keeping a window of
// updates outstanding.
//
// write = one update from its scheduled send time until its Pending
// resolves, which is after the epoch that contains it is published
// (visible latency). read = the paced reader's bundle. ops_per_s is the
// burst phase's rate. The offered rate is about a twentieth of the burst
// rate: a long batch (a snapshot rebase) or a stretch in which the host
// takes the CPUs for milliseconds still leaves a backlog, since
// alternating op kinds never coalesce, but few enough updates wait in it
// that p90 measures the program rather than how many such stalls a run
// happened to hit. At 2500 ops/s a few minutes of such host stalls moved
// the p90 of whole runs fivefold. p99 is reported, not gated.
//
// The traced run composes its own ingest queue with an applier that calls
// Forest.InsertEdges/DeleteEdges, so it can time each op's queue wait
// (Submit to the start of its batch) and each batch apply.

const (
	serveReadEvery = time.Millisecond
	// serveOpenShare is the share of the measured time spent in the open
	// loop; the burst phase takes the rest.
	serveOpenShare = 0.4
	// serveMaxBurst sizes the generated stream: burst ops per second the
	// producer could reach before running out of input.
	serveMaxBurst = 60000
	// serveRateChunk is how many consecutive burst submissions one
	// throughput sample spans.
	serveRateChunk = 1024
	// serveWindow is how many updates the burst producer keeps
	// outstanding at most; it must stay below the ingest queue's depth
	// (1024). serveRefill is how many must resolve before it submits
	// again.
	serveWindow = 256
	serveRefill = 128
)

type serveSize struct {
	n    int
	rate float64 // offered ops per second in the open loop
}

func serveSizeFor(tiny bool) serveSize {
	if tiny {
		return serveSize{n: 2048, rate: 1000}
	}
	return serveSize{n: 16384, rate: 1000}
}

// submitter is the write path under test: Forest.Submit, or the traced
// run's own ingest queue over the Forest's batch entry points.
type submitter struct {
	f  *parmsf.Forest
	q  *ingest.Queue
	ap *tracedApplier
}

func (s *submitter) submit(i int, op workload.Op) *parmsf.Pending {
	del := op.Kind == workload.OpDelete
	if s.q == nil {
		return s.f.Submit(parmsf.Update{Delete: del, U: op.U, V: op.V, W: op.W})
	}
	s.ap.submitted[i] = time.Now()
	w := op.W
	if del {
		w = -int64(i) - 1 // deletes ignore W; it carries the op index
	}
	return s.q.Submit(ingest.Op{Delete: del, U: op.U, V: op.V, W: w})
}

func (s *submitter) flush() error {
	if s.q == nil {
		return s.f.Flush()
	}
	return s.q.Flush()
}

// tracedApplier feeds the traced run's ingest queue into the Forest's
// batch entry points. It runs on the queue's drainer goroutine and owns
// its tracer and wait samples until the queue is flushed.
type tracedApplier struct {
	f         *parmsf.Forest
	tr        *tracer
	submitted []time.Time   // per op index: when Submit was called
	insertIdx map[int64]int // insert weight -> op index (weights are unique)
	waits     []float64
	edges     []parmsf.Edge
	keys      []parmsf.EdgeKey
}

func (a *tracedApplier) ApplyInserts(ops []ingest.Op) []error {
	t0 := time.Now()
	a.edges = a.edges[:0]
	for _, op := range ops {
		a.waits = append(a.waits, us(t0.Sub(a.submitted[a.insertIdx[op.W]])))
		a.edges = append(a.edges, parmsf.Edge{U: op.U, V: op.V, W: op.W})
	}
	errs := a.f.InsertEdges(a.edges)
	a.tr.record("ingest.apply", t0, time.Now())
	return errs
}

func (a *tracedApplier) ApplyDeletes(ops []ingest.Op) []error {
	t0 := time.Now()
	a.keys = a.keys[:0]
	for _, op := range ops {
		a.waits = append(a.waits, us(t0.Sub(a.submitted[-op.W-1])))
		a.keys = append(a.keys, parmsf.EdgeKey{U: op.U, V: op.V})
	}
	errs := a.f.DeleteEdges(a.keys)
	a.tr.record("ingest.apply", t0, time.Now())
	return errs
}

func runServe(cfg config) (*result, error) {
	sz := serveSizeFor(cfg.tiny)
	n, window := sz.n, sz.n/4
	openDur := time.Duration(float64(cfg.dur) * serveOpenShare)
	burstDur := cfg.dur - openDur
	steps := window + int(1.5*sz.rate*openDur.Seconds()+serveMaxBurst*burstDur.Seconds())/2 + 16
	st := workload.SlidingWindow(n, window, steps, cfg.seed)
	warm, ops := st.Ops[:window], st.Ops[window:]
	edges := make([]parmsf.Edge, len(warm))
	for i, op := range warm {
		if op.Kind != workload.OpInsert {
			return nil, fmt.Errorf("stream warm-up op %d is not an insert", i)
		}
		edges[i] = parmsf.Edge{U: op.U, V: op.V, W: op.W}
	}

	f, setup, err := buildRepeated(n, edges, parmsf.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := newResult()
	r.e2e["setup_s"] = setup
	live := newLiveSet(edges)
	qb := newBundle(n, cfg.seed)

	start := time.Now()
	sub := &submitter{f: f}
	if cfg.trace {
		sub.ap = &tracedApplier{
			f:         f,
			tr:        newTracer(true, start),
			submitted: make([]time.Time, len(ops)),
			insertIdx: make(map[int64]int, len(ops)/2+1),
		}
		for i, op := range ops {
			if op.Kind == workload.OpInsert {
				sub.ap.insertIdx[op.W] = i
			}
		}
		sub.q = ingest.NewWithConfig(sub.ap, ingest.Config{})
		defer sub.q.Close()
	}
	pub0 := f.PublishStats()
	var mem memUse
	mem.start()

	// Open loop. One goroutine generates the arrivals and does the paced
	// reads, so the load never has more runnable goroutines than the
	// drainer leaves CPUs for. It waits by spinning, never by sleeping: a
	// timer can wake a goroutine hundreds of microseconds late, and on a
	// virtualized host an idle CPU can take milliseconds to wake; either
	// would be charged to the program. While it waits for the next arrival
	// it takes the reads that fall due and polls the oldest outstanding
	// Pending — the queue resolves them in submission order — so each
	// update's visibility is stamped as soon as it resolves.
	type sent struct {
		fut *parmsf.Pending
		due time.Time
	}
	var inflight []sent
	var visible []float64
	waitErrs := 0
	resolve := func(block bool) {
		for len(visible) < len(inflight) {
			s := inflight[len(visible)]
			if block {
				<-s.fut.Done()
			} else {
				select {
				case <-s.fut.Done():
				default:
					return
				}
			}
			visible = append(visible, us(time.Since(s.due)))
			if s.fut.Err() != nil {
				waitErrs++
			}
		}
	}
	openEnd := start.Add(openDur)
	var reads []float64
	readTr := newTracer(cfg.trace, start)
	var ans answer
	nextRead := start.Add(serveReadEvery)
	read := func(now time.Time) error {
		reads = append(reads, us(qb.read(f, &ans, readTr)))
		if ans.comps+ans.size != n {
			return fmt.Errorf("snapshot components %d + size %d != n %d", ans.comps, ans.size, n)
		}
		// One read per slot; a slot missed while the generator was busy is
		// skipped rather than made up with back-to-back reads.
		if nextRead = nextRead.Add(serveReadEvery); nextRead.Before(now) {
			nextRead = now.Add(serveReadEvery)
		}
		return nil
	}
	rng := xrand.New(cfg.seed + 2)
	var lags, submits []float64
	due := start
	i, badOp := 0, -1
	for ; i < len(ops); i++ {
		gap := -math.Log(1-rng.Float64()) / sz.rate
		due = due.Add(time.Duration(gap * float64(time.Second)))
		if due.After(openEnd) {
			break
		}
		for now := time.Now(); now.Before(due); now = time.Now() {
			resolve(false)
			if !now.Before(nextRead) {
				if err := read(now); err != nil {
					return r, err
				}
			}
		}
		t0 := time.Now()
		fut := sub.submit(i, ops[i])
		submits = append(submits, us(time.Since(t0)))
		lags = append(lags, us(t0.Sub(due)))
		inflight = append(inflight, sent{fut, due})
		// Yield once: the submission woke the drainer onto this processor,
		// so it starts the batch here while the generator moves to the
		// other one.
		runtime.Gosched()
		if !live.apply(ops[i]) {
			badOp = i
			break
		}
	}
	resolve(true)
	openOps := i
	if badOp >= 0 {
		return r, fmt.Errorf("stream op %d %+v is invalid on the replayed edge set", badOp, ops[badOp])
	}
	if err := sub.flush(); err != nil {
		return r, fmt.Errorf("flush after open loop: %w", err)
	}
	r.attempted += openOps
	r.failed += waitErrs
	if err := qb.checkForest(f, n, live.edges); err != nil {
		return r, fmt.Errorf("after open loop: %w", err)
	}
	if cfg.trace {
		// The drainer is idle after the flush, so its samples can be read.
		ap := sub.ap
		st := sub.q.Stats()
		r.layer["ingest.ops_per_batch"] = float64(st.Ops) / float64(max(st.Batches, 1))
		r.layer["ingest.queue_wait_p50_us"] = stats.Percentile(ap.waits, 50)
		r.layer["ingest.queue_wait_p90_us"] = stats.Percentile(ap.waits, 90)
		r.layer["ingest.apply_p50_us"] = stats.Percentile(ap.tr.durations("ingest.apply"), 50)
		r.layer["ingest.submit_p99_us"] = stats.Percentile(submits, 99)
		r.layer["loadgen.lag_p50_us"] = stats.Percentile(lags, 50)
		r.layer["loadgen.lag_p99_us"] = stats.Percentile(lags, 99)
		pubOpen := f.PublishStats()
		snapshotLayer(pub0, pubOpen, pubOpen, readTr, r.layer)
	}

	// Burst phase: one producer in a closed loop. It keeps up to
	// serveWindow updates outstanding and, once it has that many, blocks
	// until serveRefill of them have resolved before it tops the window up
	// again. The window is below the queue's depth, so Submit never blocks,
	// and the drainer still has serveWindow-serveRefill updates queued when
	// the producer is woken, so it never runs dry however late the wake-up
	// is; the producer sleeps meanwhile and leaves its CPU to the garbage
	// collector. The rate is the drainer's, not the cost of waking a
	// goroutine per update. Like the open loop the phase starts from a
	// collected heap.
	runtime.GC()
	burstStart := time.Now()
	burstEnd := burstStart.Add(burstDur)
	futs := make([]*parmsf.Pending, 0, len(ops)-i)
	var gaps []float64 // microseconds between consecutive submissions
	prev := burstStart
	for ; i < len(ops) && (len(futs) == 0 || time.Now().Before(burstEnd)); i++ {
		if k := len(futs) - serveWindow; k >= 0 && k%serveRefill == 0 {
			<-futs[len(futs)-(serveWindow-serveRefill)-1].Done()
		}
		futs = append(futs, sub.submit(i, ops[i]))
		now := time.Now()
		gaps = append(gaps, us(now.Sub(prev)))
		prev = now
		if !live.apply(ops[i]) {
			return r, fmt.Errorf("stream op %d %+v is invalid on the replayed edge set", i, ops[i])
		}
	}
	if err := sub.flush(); err != nil {
		return r, fmt.Errorf("flush after burst: %w", err)
	}
	for _, fut := range futs {
		r.attempted++
		if fut.Err() != nil {
			r.failed++
		}
	}
	if r.failed > 0 {
		return r, fmt.Errorf("%d of %d updates failed", r.failed, r.attempted)
	}
	if err := qb.checkForest(f, n, live.edges); err != nil {
		return r, fmt.Errorf("after burst: %w", err)
	}
	mem.stop()
	if cfg.trace {
		mem.perOp(i, r.layer)
	}

	// Once the window is full the producer submits at the drainer's pace,
	// so the submission rate is the burst throughput.
	r.e2e["ops_per_s"] = medianRate(gaps, serveRateChunk, 1)
	r.e2e["write_p50_us"] = stats.Percentile(visible, 50)
	r.e2e["write_p90_us"] = windowP90(visible)
	r.e2e["read_p50_us"] = stats.Percentile(reads, 50)
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.note("setup_s", setup, "s")
	r.note("offered_ops_per_s", sz.rate, "1/s")
	r.note("open_loop_ops", float64(openOps), "count")
	r.note("visible_p50_us", r.e2e["write_p50_us"], "us")
	r.note("visible_p90_us", stats.Percentile(visible, 90), "us")
	r.note("visible_p99_us", stats.Percentile(visible, 99), "us")
	r.note("read_p50_us", r.e2e["read_p50_us"], "us")
	r.note("read_p90_us", stats.Percentile(reads, 90), "us")
	r.note("ops_per_s", r.e2e["ops_per_s"], "1/s")
	r.note("live_heap_mb", r.e2e["live_heap_mb"], "MB")
	r.note("lag_p50_us", stats.Percentile(lags, 50), "us")
	r.note("lag_p99_us", stats.Percentile(lags, 99), "us")

	return r, nil
}
