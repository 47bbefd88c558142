package sparsify

import (
	"fmt"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/ternary"
	"parmsf/internal/xrand"
)

// pramFactory builds the Section 5.3 node engine the composed pipeline
// uses: a core structure on a private PRAM simulator under the ternary
// wrapper, so per-node depth/work deltas are observable and order-free.
func pramFactory(localN, maxEdges int) Engine {
	nm := pram.New(false)
	return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.PRAMCharger{M: nm})
	})
}

func withCounters(f *Forest) *Forest {
	mach := func(e Engine) *pram.Machine {
		w, ok := e.(*ternary.Wrapper)
		if !ok {
			return nil
		}
		m, ok := w.Gadget().(*core.MSF)
		if !ok {
			return nil
		}
		return m.Machine()
	}
	f.DepthFn = func(e Engine) int64 {
		if m := mach(e); m != nil {
			return m.Time
		}
		return 0
	}
	f.WorkFn = func(e Engine) int64 {
		if m := mach(e); m != nil {
			return m.Work
		}
		return 0
	}
	return f
}

// TestPipelineParity drives identical random insert/delete batch streams
// through the batch scheduler executed inline and on a 3-worker task pool,
// checking both after every batch against per-edge replay on a twin tree
// and against the Kruskal baseline: identical forests everywhere, plus
// identical node-op counters, node counts and — because per-node engines
// are private and the batch aggregate merges them commutatively —
// bit-identical ParDepth/ParWork between inline and pooled, regardless of
// task completion order. Run with -race to certify the concurrent node
// applications share no state.
func TestPipelineParity(t *testing.T) {
	const n = 32
	inline := withCounters(New(n, pramFactory))
	pooled := withCounters(New(n, pramFactory))
	tp := NewTaskPool(3)
	defer tp.Close()
	pooled.Spawn = tp.Spawn
	twin := New(n, pramFactory)
	ref := baseline.NewKruskal(n)

	check := func(stage string) {
		t.Helper()
		for _, f := range []*Forest{inline, pooled} {
			sameForests(t, stage+" (batch vs per-edge replay)", f, twin)
			sameForests(t, stage+" (batch vs kruskal)", f, ref)
			if err := f.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
		if pooled.ParDepth != inline.ParDepth || pooled.ParWork != inline.ParWork {
			t.Fatalf("%s: counters diverge: pooled {D=%d W=%d} vs inline {D=%d W=%d}",
				stage, pooled.ParDepth, pooled.ParWork, inline.ParDepth, inline.ParWork)
		}
		if pooled.BatchNodeOps != inline.BatchNodeOps || pooled.PerEdgeNodeOps != inline.PerEdgeNodeOps {
			t.Fatalf("%s: node-op counters diverge: pooled {%d %d} vs inline {%d %d}",
				stage, pooled.BatchNodeOps, pooled.PerEdgeNodeOps, inline.BatchNodeOps, inline.PerEdgeNodeOps)
		}
		if pooled.NodeCount() != inline.NodeCount() {
			t.Fatalf("%s: node counts diverge: pooled %d vs inline %d", stage, pooled.NodeCount(), inline.NodeCount())
		}
	}

	rng := xrand.New(1511)
	var live [][2]int
	liveSet := map[[2]int]bool{}
	nextW := int64(1)
	for round := 0; round < 10; round++ {
		var ins []batch.Edge
		seen := map[[2]int]bool{}
		for len(ins) < 20 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			k := key(u, v)
			if seen[k] || liveSet[k] {
				continue
			}
			seen[k] = true
			ins = append(ins, batch.Edge{U: u, V: v, W: nextW})
			nextW++
		}
		for _, f := range []*Forest{inline, pooled} {
			for i, err := range f.InsertEdges(ins) {
				if err != nil {
					t.Fatalf("round %d: ins errs[%d] = %v", round, i, err)
				}
			}
		}
		for _, it := range ins {
			mustNil(t, twin.InsertEdge(it.U, it.V, it.W))
			mustNil(t, ref.InsertEdge(it.U, it.V, it.W))
			k := key(it.U, it.V)
			live = append(live, k)
			liveSet[k] = true
		}
		check(fmt.Sprintf("round %d insert", round))

		var del [][2]int
		for i := 0; i < 10 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			del = append(del, live[j])
			delete(liveSet, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, f := range []*Forest{inline, pooled} {
			for i, err := range f.DeleteEdges(del) {
				if err != nil {
					t.Fatalf("round %d: del errs[%d] (%v) = %v", round, i, del[i], err)
				}
			}
		}
		for _, k := range del {
			mustNil(t, twin.DeleteEdge(k[0], k[1]))
			mustNil(t, ref.DeleteEdge(k[0], k[1]))
		}
		check(fmt.Sprintf("round %d delete", round))
	}
	if inline.BatchNodeOps == 0 {
		t.Fatal("stream never exercised a node batch")
	}
}
