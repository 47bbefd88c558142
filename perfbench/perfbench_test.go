package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"parmsf/internal/baseline"
	"parmsf/internal/workload"
)

func tinyConfig(trace bool) config {
	return config{seed: 7, dur: 200 * time.Millisecond, trace: trace, tiny: true}
}

// TestSmoke runs every workload at tiny scale, untraced and traced,
// through its correctness gate.
func TestSmoke(t *testing.T) {
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			r, err := workloads[name](tinyConfig(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d", name, trace, r.attempted, r.failed)
			}
			for _, d := range endToEnd {
				if v, ok := r.e2e[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", name, trace, d.name, v)
				}
			}
		}
	}
}

// layerPrefixes are the per-layer metric groups each workload measures in
// its traced run. parmsf.api_us_per_op is left out: it is a difference of
// two timings, which noise can push below zero at tiny scale.
var layerPrefixes = map[string][]string{
	"churn": {"snapshot.", "ternary.op", "core.", "runtime.alloc"},
	"serve": {"ingest.", "snapshot.publish", "snapshot.delta", "snapshot.acquire", "loadgen.", "runtime.alloc"},
	"cold":  {"ternary.new", "ternary.bulkload", "batch.", "snapshot.publish", "runtime."},
	"dense": {"snapshot.publish", "parmsf.insert", "parmsf.delete", "pram.", "runtime.alloc"},
}

// TestTracedLayers checks that each workload's traced run fills the layer
// metrics it is responsible for.
func TestTracedLayers(t *testing.T) {
	for _, name := range workloadOrder {
		r, err := workloads[name](tinyConfig(true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range perLayer {
			for _, p := range layerPrefixes[name] {
				if strings.HasPrefix(d.name, p) && r.layer[d.name] <= 0 && d.name != "runtime.gc_pause_ms" && d.name != "runtime.gc_cycles" {
					t.Errorf("%s: %s = %v, want > 0", name, d.name, r.layer[d.name])
				}
			}
		}
	}
}

// TestCountsRepeat pins the exact-count metrics: two traced runs with one
// seed report identical core and PRAM counters and snapshot path counts,
// whatever their timing.
func TestCountsRepeat(t *testing.T) {
	exact := map[string][]string{
		"churn": {"core.", "snapshot.rebases", "snapshot.delta_ratio"},
		"dense": {"pram.", "snapshot.rebases", "snapshot.delta_ratio"},
	}
	for name, prefixes := range exact {
		a, err := workloads[name](tinyConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig(true)
		cfg.dur = 2 * cfg.dur // a different amount of timed work
		b, err := workloads[name](cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			for _, p := range prefixes {
				if strings.HasPrefix(d.name, p) && a.layer[d.name] != b.layer[d.name] {
					t.Errorf("%s: %s differs between runs: %v vs %v", name, d.name, a.layer[d.name], b.layer[d.name])
				}
			}
		}
	}
}

// TestOracleMatchesBaseline replays streams op by op on baseline.Kruskal
// and checks that the benchmark's oracle, run on the replayed edge set,
// gives the same forest weight, size and connectivity.
func TestOracleMatchesBaseline(t *testing.T) {
	const n = 60
	streams := map[string]workload.Stream{
		"churn":  workload.Churn(n, workload.RandomSparse(n, 2*n, 3), 300, false, 4),
		"window": workload.SlidingWindow(n, n/4, 300, 5),
	}
	for name, st := range streams {
		ref := baseline.NewKruskal(n)
		live := newLiveSet(nil)
		for i, op := range st.Ops {
			var err error
			if op.Kind == workload.OpInsert {
				err = ref.InsertEdge(op.U, op.V, op.W)
			} else {
				err = ref.DeleteEdge(op.U, op.V)
			}
			if ok := live.apply(op); ok != (err == nil) {
				t.Fatalf("%s op %d: replay accepted=%v, baseline error %v", name, i, ok, err)
			}
			o := kruskal(n, live.edges)
			if o.weight != ref.Weight() || o.size != ref.ForestSize() || o.comps != n-ref.ForestSize() {
				t.Fatalf("%s op %d: oracle %d/%d, baseline %d/%d", name, i, o.weight, o.size, ref.Weight(), ref.ForestSize())
			}
			for u := 0; u < n; u += 7 {
				for v := 1; v < n; v += 5 {
					if o.connected(u, v) != ref.Connected(u, v) {
						t.Fatalf("%s op %d: Connected(%d, %d) oracle %v, baseline %v", name, i, u, v, o.connected(u, v), ref.Connected(u, v))
					}
				}
			}
		}
	}
}

// TestContract checks that the metric tables and workloads match
// BENCHMARK.json.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
