// Command perfbench is the repository benchmark. It drives the parmsf
// serving stack through four workloads, checks every workload's outputs
// against a Kruskal oracle, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// Workloads (each takes its input seed from --seed):
//
//   - churn: closed loop, one client, synchronous Insert/Delete on a sparse
//     graph with a giant component. The core-bound path; ingest bypassed.
//   - serve: open loop, Poisson arrivals through Submit on a sliding-window
//     stream, with paced snapshot reads between arrivals, then a
//     closed-loop burst.
//     Ingest, publication and the read plane.
//   - cold: Build of a 50k-edge graph, a poisoned batch, and Recover. The
//     bulk path: sort, filter-Kruskal, BulkLoad, GC.
//   - dense: the sparsification tree on a dense graph, batches of
//     DeleteEdges and InsertEdges on the worker pool.
//
// With --trace 0 the result carries the end-to-end metrics (endToEnd);
// with --trace 1 the run records spans around its calls into each layer's
// public entry points and reports the per-layer metrics (perLayer). A
// layer a workload does not call reports 0. Every run also prints, before
// the result line, the workload's metrics under their workload-specific
// names (op_p50_us, visible_p90_us, build_s, ...), and --workload all runs
// every workload in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract and must match BENCHMARK.json (the tests check).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the forest sees. Every workload
// reports each one; "write" is the workload's unit of update work (see
// the per-workload files) and "read" is one snapshot acquisition plus a
// fixed query bundle. ops_per_s is the median rate over chunks of the run
// (medianRate) and write_p90_us the median p90 over windows of it
// (windowP90); the report lines above the result give the whole-run
// figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"read_p50_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the layer whose entry
// point the benchmark timed or whose counters it read.
var perLayer = []metricDef{
	{"ingest.ops_per_batch", "ops/batch"},
	{"ingest.queue_wait_p50_us", "us"},
	{"ingest.queue_wait_p90_us", "us"},
	{"ingest.apply_p50_us", "us"},
	{"ingest.submit_p99_us", "us"},
	{"snapshot.publish_us_per_epoch", "us"},
	{"snapshot.delta_ratio", "ratio"},
	{"snapshot.rebases", "count"},
	{"snapshot.acquire_p50_ns", "ns"},
	{"ternary.op_p50_us", "us"},
	{"ternary.op_p99_us", "us"},
	{"ternary.new_ms", "ms"},
	{"ternary.bulkload_ms", "ms"},
	{"core.row_rebuilds_per_op", "1/op"},
	{"core.chunk_splits_per_op", "1/op"},
	{"core.chunk_merges_per_op", "1/op"},
	{"core.column_sweeps_per_op", "1/op"},
	{"core.path_refreshes_per_op", "1/op"},
	{"core.mwr_queries_per_op", "1/op"},
	{"core.tour_links_per_op", "1/op"},
	{"core.tour_cuts_per_op", "1/op"},
	{"parmsf.api_us_per_op", "us"},
	{"parmsf.insert_batch_p50_ms", "ms"},
	{"parmsf.delete_batch_p50_ms", "ms"},
	{"batch.sort_ms", "ms"},
	{"pram.depth_per_batch", "rounds"},
	{"pram.work_per_batch", "proc-rounds"},
	{"runtime.alloc_mb", "MB/op"},
	{"runtime.gc_cycles", "1/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"loadgen.lag_p50_us", "us"},
	{"loadgen.lag_p99_us", "us"},
}

// config is one workload run's parameters.
type config struct {
	seed  uint64
	dur   time.Duration
	trace bool
	// tiny shrinks every workload to a size the smoke tests run in well
	// under a second of work.
	tiny bool
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"churn", "serve", "cold", "dense"}

var workloads = map[string]func(config) (*result, error){
	"churn": runChurn,
	"serve": runServe,
	"cold":  runCold,
	"dense": runDense,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// metricsJSON selects the contract metrics of one run: end-to-end without
// tracing, per-layer with it. prefix namespaces the names for --workload
// all.
func metricsJSON(r *result, trace bool, prefix string, into map[string]jsonMetric) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		into[prefix+d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: churn, serve, cold, dense, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want churn, serve, cold, dense or all)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// Load runs from this one process with one OS thread per CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("host nproc=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range names {
		cfg := config{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
		r, err := workloads[w](cfg)
		if r != nil {
			r.print(w)
			out.Attempted += r.attempted
			out.Failed += r.failed
			prefix := ""
			if len(names) > 1 {
				prefix = w + "."
			}
			metricsJSON(r, cfg.trace, prefix, out.Metrics)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
