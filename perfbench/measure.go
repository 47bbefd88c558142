package main

import (
	"fmt"
	"runtime"
	"time"

	"parmsf"
	"parmsf/internal/snapshot"
	"parmsf/internal/stats"
)

// result is one workload run: the op counts, the contract metrics, and the
// workload-specific report lines printed before the result JSON.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	report            []reportLine
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// note adds a report line under the workload-specific metric name.
func (r *result) note(name string, v float64, unit string) {
	r.report = append(r.report, reportLine{name, v, unit})
}

func (r *result) print(workload string) {
	for _, l := range r.report {
		fmt.Printf("%-6s %-26s %14.4f %s\n", workload, l.name, l.value, l.unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-6s %-26s %14.4f %s\n", workload, "fail_ratio", ratio, "ratio")
}

// medianRate splits consecutive durations (microseconds) into chunks of
// chunk samples, each sample standing for perSample units of work, and
// returns the median of the chunks' rates per second: a throughput that a
// transient stall of the host moves less than the overall mean does.
func medianRate(durs []float64, chunk int, perSample float64) float64 {
	chunk = min(chunk, len(durs))
	var rates []float64
	for lo := 0; chunk > 0 && lo+chunk <= len(durs); lo += chunk {
		rates = append(rates, float64(chunk)*perSample/sum(durs[lo:lo+chunk])*1e6)
	}
	return stats.Median(rates)
}

// tailWindows is how many consecutive windows write_p90_us is taken over.
const tailWindows = 10

// windowP90 splits samples (in time order) into tailWindows consecutive
// windows and returns the median of the windows' 90th percentiles: the
// tail of a typical stretch of the run, which one rare stall moves less
// than the whole-run p90. With fewer than 10 samples per window it is the
// plain p90.
func windowP90(xs []float64) float64 {
	w := len(xs) / tailWindows
	if w < 10 {
		return stats.Percentile(xs, 90)
	}
	p := make([]float64, tailWindows)
	for i := range p {
		p[i] = stats.Percentile(xs[i*w:(i+1)*w], 90)
	}
	return stats.Median(p)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one timed call into a layer's entry point, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps the spans of one goroutine in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(on bool, origin time.Time) *tracer {
	if !on {
		return nil
	}
	return &tracer{origin: origin}
}

func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name, start.Sub(t.origin), end.Sub(t.origin)})
}

// durations returns the durations in microseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, us(s.end-s.start))
		}
	}
	return out
}

// memUse accumulates the Go runtime's allocation and GC counters over the
// measured stretches of a run, between start and stop.
type memUse struct {
	mark                    runtime.MemStats
	allocBytes, gcs, pauses uint64
}

func (m *memUse) start() { runtime.ReadMemStats(&m.mark) }

func (m *memUse) stop() {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.allocBytes += end.TotalAlloc - m.mark.TotalAlloc
	m.gcs += uint64(end.NumGC - m.mark.NumGC)
	m.pauses += end.PauseTotalNs - m.mark.PauseTotalNs
}

// perOp reports the allocated MB, GC cycles and GC pause milliseconds per
// op.
func (m *memUse) perOp(ops int, layer map[string]float64) {
	n := float64(max(ops, 1))
	layer["runtime.alloc_mb"] = float64(m.allocBytes) / 1e6 / n
	layer["runtime.gc_cycles"] = float64(m.gcs) / n
	layer["runtime.gc_pause_ms"] = float64(m.pauses) / 1e6 / n
}

// liveHeapMB collects garbage and returns the live heap in MB. The caller
// keeps the measured forest reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// buildRepeated builds the forest setupReps times from the same edges and
// keeps the last one, returning it with the median build time in seconds.
func buildRepeated(n int, edges []parmsf.Edge, opt parmsf.Options) (*parmsf.Forest, float64, error) {
	var f *parmsf.Forest
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.Close()
			f = nil
		}
		// Each build starts from a collected heap, as a fresh process does.
		runtime.GC()
		t0 := time.Now()
		nf, errs, err := parmsf.Build(n, edges, opt)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("build: %w", err)
		}
		f = nf
		if errs != nil {
			f.Close()
			return nil, 0, fmt.Errorf("build rejected edges: %v", firstErr(errs))
		}
	}
	// The measured phase starts from a collected heap, so no run inherits
	// a collection that set-up left due.
	runtime.GC()
	return f, stats.Percentile(times, 50), nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countErrs returns how many slots of a batch result hold an error.
func countErrs(errs []error) int {
	k := 0
	for _, err := range errs {
		if err != nil {
			k++
		}
	}
	return k
}

// snapshotLayer reports the publisher's counters: publication time per
// epoch over the whole phase (begin to end), the delta-path share and the
// rebase count over the counted prefix (begin to counted), and the traced
// snapshot acquisition time.
func snapshotLayer(begin, counted, end snapshot.Stats, tr *tracer, layer map[string]float64) {
	if ep := end.Epochs - begin.Epochs; ep > 0 {
		layer["snapshot.publish_us_per_epoch"] = float64(end.PublishNs-begin.PublishNs) / 1e3 / float64(ep)
	}
	if ep := counted.Epochs - begin.Epochs; ep > 0 {
		layer["snapshot.delta_ratio"] = float64(counted.DeltaEpochs-begin.DeltaEpochs) / float64(ep)
	}
	layer["snapshot.rebases"] = float64(counted.Rebases - begin.Rebases)
	layer["snapshot.acquire_p50_ns"] = stats.Percentile(tr.durations("snapshot.acquire"), 50) * 1e3
}
