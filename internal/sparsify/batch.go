package sparsify

import (
	"fmt"
	"sort"

	"parmsf/internal/batch"
	"parmsf/internal/faultinject"
)

// Crash points of the sparsification tree (see Forest.Fault).
var (
	fpRunBatch = faultinject.Register("sparsify/run-batch")
	fpNodeTask = faultinject.Register("sparsify/node-task")
)

// This file implements the batch path of the sparsification tree: a whole
// batch of updates enters at its leaf nodes and propagates to the root
// through the dependency scheduler of pipeline.go. A node's pending updates
// and the forest deltas drained from its children (the paper's REdges
// bookkeeping) are grouped and coalesced per edge, and the node applies its
// net delta once, through its engine's batch entry points, as soon as all
// of its children have drained into it. Touched nodes own disjoint local
// engines, so runnable nodes apply concurrently when the tree has a task
// spawner. Nodes whose local graph empties are destroyed only after their
// events have been drained into the parent (teardown ordering), and
// per-batch cost is accounted as the max depth over the touched nodes plus
// the O(log n) coordination of Section 5.3.

// BatchEngine is the batch view of a node engine: whole-delta insertion and
// deletion entry points with one error slot per edge. The ternary wrapper
// (whose BatchEdge is an alias of batch.Edge) implements it natively over
// the core pipeline; any other Engine is adapted per edge.
type BatchEngine interface {
	InsertEdges(items []batch.Edge) []error
	DeleteEdges(keys [][2]int) []error
}

// asBatch resolves an engine's batch view; the boolean reports whether the
// engine implements BatchEngine itself (false: per-edge adapter).
func asBatch(e Engine) (BatchEngine, bool) {
	if be, ok := e.(BatchEngine); ok {
		return be, true
	}
	return perEdge{e}, false
}

// perEdge adapts a plain Engine to BatchEngine one edge at a time.
type perEdge struct{ e Engine }

func (p perEdge) InsertEdges(items []batch.Edge) []error {
	errs := make([]error, len(items))
	for i, it := range items {
		errs[i] = p.e.InsertEdge(it.U, it.V, it.W)
	}
	return errs
}

func (p perEdge) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	for i, k := range keys {
		errs[i] = p.e.DeleteEdge(k[0], k[1])
	}
	return errs
}

// keyState tracks one edge's event history inside a node's pending group:
// the first event type pins the edge's membership before the batch, the
// last pins it after, and the pair determines the net operation (an edge's
// weight cannot change within one batch, so del→add and add→del histories
// cancel exactly).
type keyState struct {
	first, last bool // true = added
	w           int64
}

// group is the coalesced pending delta of one node.
type group struct {
	keys  [][2]int // first-touch order (deterministic)
	state map[[2]int]*keyState
}

func (g *group) add(u, v int, w int64, added bool) {
	k := key(u, v)
	st, ok := g.state[k]
	if !ok {
		g.state[k] = &keyState{first: added, last: added, w: w}
		g.keys = append(g.keys, k)
		return
	}
	st.last = added
	if added {
		st.w = w
	}
}

// net extracts the group's net delta: deletions and insertions over
// disjoint edge sets, in first-touch order. Deletions apply first — every
// net-deleted edge is present before the batch and every net-inserted edge
// absent, so the two stages never collide.
func (g *group) net() (dels [][2]int, inss []batch.Edge) {
	for _, k := range g.keys {
		st := g.state[k]
		switch {
		case st.first && st.last:
			inss = append(inss, batch.Edge{U: k[0], V: k[1], W: st.w})
		case !st.first && !st.last:
			dels = append(dels, k)
		}
	}
	return dels, inss
}

// frontier is the set of touched leaves of a batch, keyed by node.
type frontier map[nodeKey]*group

func (fr frontier) group(k nodeKey) *group {
	g, ok := fr[k]
	if !ok {
		g = &group{state: make(map[[2]int]*keyState)}
		fr[k] = g
	}
	return g
}

// parentKey returns the key of a node's unique parent. Every forest-change
// event a node emits has both endpoints inside the node's intervals, so the
// whole emitted delta routes to this one node.
func parentKey(k nodeKey) nodeKey {
	return nodeKey{k.level - 1, k.a / 2, k.b / 2}
}

// InsertEdges inserts a batch of edges, returning one error slot per item
// (nil on success; ErrBadEdge and ErrExists mirror InsertEdge, with a
// repeated in-batch edge failing from its second occurrence on). The
// surviving edges seed the leaf frontier and propagate to the root. With
// distinct weights the resulting forest is identical to per-edge insertion
// in any order (each node's MSF is unique given its local edge set).
func (f *Forest) InsertEdges(items []batch.Edge) []error {
	errs := make([]error, len(items))
	fr := make(frontier)
	staged := 0
	for i, it := range items {
		u, v := it.U, it.V
		if u == v || u < 0 || v < 0 || u >= f.n || v >= f.n {
			errs[i] = ErrBadEdge
			continue
		}
		k := key(u, v)
		if _, dup := f.edges[k]; dup {
			errs[i] = ErrExists
			continue
		}
		f.edges[k] = it.W
		fr.group(f.keyAt(f.levels, u, v)).add(u, v, it.W, true)
		staged++
	}
	if staged > 0 {
		f.runBatch(fr)
		f.applied()
	}
	return errs
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). Replacement promotions
// discovered at any level ride the same propagation as the deletions that
// caused them.
func (f *Forest) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	fr := make(frontier)
	staged := 0
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		if _, ok := f.edges[k]; !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(f.edges, k)
		fr.group(f.keyAt(f.levels, k[0], k[1])).add(k[0], k[1], 0, false)
		staged++
	}
	if staged > 0 {
		f.runBatch(fr)
		f.applied()
	}
	return errs
}

// BulkEngine is the optional static bulk-load view of a node engine (the
// ternary wrapper over core.MSF): a whole initial edge set with per-edge
// MSF-membership flags, loaded in one engine batch with no incremental
// connectivity or path-max work.
type BulkEngine interface {
	BulkLoad(items []batch.Edge, tree []bool) []error
}

// applyNodeDelta applies one node's net delta — deletions first, then
// insertions, both in first-touch order — through the node's batch engine.
// It may run concurrently with other runnable nodes and touches only nd's
// state.
// An insert-only delta into an empty node (every node of a fresh tree
// during a bulk build, and any node recreated after its local graph
// emptied) routes through the engine's static bulk loader when it has one:
// the node classifies its local MSF with a Kruskal pass and the engine
// skips the per-edge update machinery entirely.
func (f *Forest) applyNodeDelta(nd *node, dels [][2]int, inss []batch.Edge) {
	f.Fault.Hit(fpNodeTask)
	if len(dels) == 0 && nd.m == 0 && len(inss) > 0 {
		if ble, ok := nd.eng.(BulkEngine); ok {
			f.bulkLoadNode(nd, ble, inss)
			return
		}
	}
	if len(dels) > 0 {
		ldels := make([][2]int, len(dels))
		for i, k := range dels {
			ldels[i] = [2]int{nd.local(k[0]), nd.local(k[1])}
		}
		for i, err := range nd.be.DeleteEdges(ldels) {
			if err != nil {
				panic(fmt.Sprintf("sparsify: local batch delete (%d,%d): %v", dels[i][0], dels[i][1], err))
			}
		}
		nd.m -= len(dels)
	}
	if len(inss) > 0 {
		lins := make([]batch.Edge, len(inss))
		for i, e := range inss {
			lins[i] = batch.Edge{U: nd.local(e.U), V: nd.local(e.V), W: e.W}
		}
		for i, err := range nd.be.InsertEdges(lins) {
			if err != nil {
				panic(fmt.Sprintf("sparsify: local batch insert (%d,%d): %v", inss[i].U, inss[i].V, err))
			}
		}
		nd.m += len(inss)
	}
}

// bulkLoadNode seeds an empty node's engine with its whole delta in one
// static bulk load: localize the ids, classify the local MSF with a
// Kruskal pass ordered by (weight, local endpoints), and hand the flagged
// set to the engine's bulk loader. The tie-break matches the incremental
// path exactly: local() is increasing on each of the node's intervals and
// interval a precedes interval b, so the (w, lu, lv) order equals the
// (w, u, v) order of the global canonical keys under which sorted per-edge
// replay resolves equal-weight conflicts (first arrival wins, and sorted
// arrival never swaps). Runs on a worker goroutine; touches only nd's
// state plus the tree's atomic bulk counter.
func (f *Forest) bulkLoadNode(nd *node, be BulkEngine, inss []batch.Edge) {
	lins := make([]batch.Edge, len(inss))
	for i, e := range inss {
		lins[i] = batch.Edge{U: nd.local(e.U), V: nd.local(e.V), W: e.W}
	}
	order := make([]int, len(lins))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := lins[order[a]], lins[order[b]]
		if x.W != y.W {
			return x.W < y.W
		}
		if x.U != y.U {
			return x.U < y.U
		}
		return x.V < y.V
	})
	localN := nd.span
	if nd.key.a != nd.key.b {
		localN = 2 * nd.span
	}
	parent := make([]int32, localN)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := make([]bool, len(lins))
	for _, i := range order {
		ru, rv := find(int32(lins[i].U)), find(int32(lins[i].V))
		if ru != rv {
			parent[rv] = ru
			tree[i] = true
		}
	}
	for i, err := range be.BulkLoad(lins, tree) {
		if err != nil {
			panic(fmt.Sprintf("sparsify: local bulk load (%d,%d): %v", inss[i].U, inss[i].V, err))
		}
	}
	nd.m += len(inss)
	f.BulkNodeLoads.Add(1)
}
