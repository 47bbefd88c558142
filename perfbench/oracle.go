package main

import (
	"fmt"
	"sort"
	"time"

	"parmsf"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// liveSet replays a workload's updates on a plain edge set, so every op's
// expected outcome and the final graph are known without asking the
// program. Edges are kept in a slice (deterministic iteration and random
// picks) indexed by their canonical key.
type liveSet struct {
	edges []parmsf.Edge
	pos   map[[2]int]int
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func newLiveSet(edges []parmsf.Edge) *liveSet {
	s := &liveSet{pos: make(map[[2]int]int, len(edges))}
	for _, e := range edges {
		s.insert(e)
	}
	return s
}

// insert adds e and reports whether it was absent.
func (s *liveSet) insert(e parmsf.Edge) bool {
	k := edgeKey(e.U, e.V)
	if _, ok := s.pos[k]; ok {
		return false
	}
	s.pos[k] = len(s.edges)
	s.edges = append(s.edges, e)
	return true
}

// remove deletes edge (u, v) and reports whether it was present.
func (s *liveSet) remove(u, v int) bool {
	k := edgeKey(u, v)
	i, ok := s.pos[k]
	if !ok {
		return false
	}
	last := len(s.edges) - 1
	s.edges[i] = s.edges[last]
	s.pos[edgeKey(s.edges[i].U, s.edges[i].V)] = i
	s.edges = s.edges[:last]
	delete(s.pos, k)
	return true
}

// apply replays one stream op and reports whether the program should have
// accepted it.
func (s *liveSet) apply(op workload.Op) bool {
	if op.Kind == workload.OpInsert {
		return s.insert(parmsf.Edge{U: op.U, V: op.V, W: op.W})
	}
	return s.remove(op.U, op.V)
}

// msf is the oracle's answer for one edge set: the minimum spanning forest
// by Kruskal — sort by (W, U, V), then union-find — which is the
// recomputation internal/baseline's Kruskal engine runs after every
// update, done here once per check. (The tests pin it to a baseline.Kruskal
// replay of the same ops.)
type msf struct {
	weight int64
	size   int
	comps  int
	parent []int32
	tree   []bool // per input edge: in the forest
}

func kruskal(n int, edges []parmsf.Edge) *msf {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lessWUV(edges[order[a]], edges[order[b]]) })
	o := &msf{parent: make([]int32, n), tree: make([]bool, len(edges)), comps: n}
	for v := range o.parent {
		o.parent[v] = int32(v)
	}
	for _, i := range order {
		e := edges[i]
		ru, rv := o.find(e.U), o.find(e.V)
		if ru == rv {
			continue
		}
		o.parent[ru] = rv
		o.weight += e.W
		o.size++
		o.comps--
		o.tree[i] = true
	}
	return o
}

// lessWUV is the (W, U, V) order in which Build and InsertEdges break
// weight ties.
func lessWUV(x, y parmsf.Edge) bool {
	if x.W != y.W {
		return x.W < y.W
	}
	if x.U != y.U {
		return x.U < y.U
	}
	return x.V < y.V
}

func (o *msf) find(x int) int32 {
	p := o.parent
	r := int32(x)
	for p[r] != r {
		p[r] = p[p[r]]
		r = p[r]
	}
	return r
}

func (o *msf) connected(u, v int) bool { return o.find(u) == o.find(v) }

// treeFirst orders edges as Build loads them: forest edges ascending by
// (W, U, V), then the remaining edges in input order. It returns the
// ordered edges and their forest flags, the input of Wrapper.BulkLoad.
func (o *msf) treeFirst(edges []parmsf.Edge) ([]parmsf.Edge, []bool) {
	var tree, rest []parmsf.Edge
	for i, e := range edges {
		if o.tree[i] {
			tree = append(tree, e)
		} else {
			rest = append(rest, e)
		}
	}
	sort.Slice(tree, func(a, b int) bool { return lessWUV(tree[a], tree[b]) })
	flags := make([]bool, len(edges))
	for i := range tree {
		flags[i] = true
	}
	return append(tree, rest...), flags
}

// bundle is the fixed query set one read answers against one snapshot:
// Connected on a seeded list of vertex pairs, then Components, Size and
// Weight.
type bundle struct {
	pairs [][2]int
}

const bundlePairs = 128

func newBundle(n int, seed uint64) bundle {
	rng := xrand.New(seed ^ 0x5eed_b0d1e)
	b := bundle{pairs: make([][2]int, bundlePairs)}
	for i := range b.pairs {
		b.pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return b
}

// answer is one read's result.
type answer struct {
	connected []bool
	comps     int
	size      int
	weight    int64
}

// read answers the bundle against the forest's current snapshot and
// returns the read's latency. With a tracer it also times snapshot
// acquisition, as the mean of acquireBatch back-to-back acquire/release
// pairs (one pair is shorter than the clock's resolution).
func (b bundle) read(f *parmsf.Forest, ans *answer, tr *tracer) time.Duration {
	if tr != nil {
		t0 := time.Now()
		for i := 0; i < acquireBatch; i++ {
			f.Snapshot().Release()
		}
		t1 := time.Now()
		tr.record("snapshot.acquire", t0, t0.Add(t1.Sub(t0)/acquireBatch))
	}
	t0 := time.Now()
	s := f.Snapshot()
	ans.connected = ans.connected[:0]
	for _, p := range b.pairs {
		ans.connected = append(ans.connected, s.Connected(p[0], p[1]))
	}
	ans.comps, ans.size, ans.weight = s.Components(), s.Size(), s.Weight()
	s.Release()
	return time.Since(t0)
}

const acquireBatch = 16

// check compares one read's answer with the oracle.
func (b bundle) check(ans *answer, o *msf) error {
	if ans.weight != o.weight || ans.size != o.size || ans.comps != o.comps {
		return fmt.Errorf("forest weight/size/components %d/%d/%d, oracle %d/%d/%d",
			ans.weight, ans.size, ans.comps, o.weight, o.size, o.comps)
	}
	for i, p := range b.pairs {
		if want := o.connected(p[0], p[1]); ans.connected[i] != want {
			return fmt.Errorf("Connected(%d, %d) = %v, oracle %v", p[0], p[1], ans.connected[i], want)
		}
	}
	return nil
}

// checkForest reads the forest's current snapshot and compares it with the
// Kruskal oracle of edges.
func (b bundle) checkForest(f *parmsf.Forest, n int, edges []parmsf.Edge) error {
	var ans answer
	b.read(f, &ans, nil)
	return b.check(&ans, kruskal(n, edges))
}

func toEdges(es []workload.Edge) []parmsf.Edge {
	out := make([]parmsf.Edge, len(es))
	for i, e := range es {
		out[i] = parmsf.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}
