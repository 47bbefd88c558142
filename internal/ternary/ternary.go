// Package ternary implements Frederickson's degree-reduction transformation
// (assumed in Section 1.1 of the paper): it wraps a dynamic MSF engine that
// requires maximum degree 3 and presents an unbounded-degree interface.
//
// Each original vertex v is represented by a path of "slot" gadget vertices,
// one slot per incident edge (a lone base slot when isolated). Consecutive
// slots are joined by ring edges of weight lighter than every real edge, so
// all ring edges always belong to the gadget MSF and the remaining MSF edges
// are exactly the MSF of the original graph. Each slot hosts at most one
// real edge, so gadget degrees never exceed 3 (ring prev + ring next + one
// real edge). Insertions append a slot; deletions move the last slot's
// hosted edge into the freed slot, keeping paths compact — O(1) engine
// operations per update.
package ternary

import (
	"errors"
	"fmt"

	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/faultinject"
)

// Crash points of the degree-reduction layer: both fire after the wrapper's
// slot/ring staging has mutated its bookkeeping (slots, hosted, edges map)
// and before the staged batch reaches the engine — the wrapper-vs-engine
// divergence a recovery rebuild must erase.
var (
	fpBatchInsert = faultinject.Register("ternary/batch-insert")
	fpBatchDelete = faultinject.Register("ternary/batch-delete")
)

// RingWeight is the weight of gadget ring edges. It must compare below
// every real edge weight; callers must keep real weights above it.
const RingWeight = int64(-1) << 60

// Engine is the degree-3 dynamic MSF interface being wrapped (satisfied by
// core.MSF and the baselines).
type Engine interface {
	InsertEdge(u, v int, w int64) error
	DeleteEdge(u, v int) error
	Connected(u, v int) bool
	Weight() int64
	ForestSize() int
	ForestEdges(f func(u, v int, w int64) bool)
	SetEvents(f func(u, v int, w int64, added bool))
}

// Common errors.
var (
	ErrExists   = errors.New("ternary: edge already present")
	ErrMissing  = errors.New("ternary: edge not present")
	ErrCapacity = errors.New("ternary: gadget capacity exhausted")
	ErrWeight   = errors.New("ternary: weight below RingWeight bound")
	ErrVertex   = errors.New("ternary: vertex out of range")
	ErrSelfLoop = errors.New("ternary: self loop")
)

type edgeRec struct {
	u, v   int // original endpoints, u < v
	w      int64
	su, sv int32 // hosting gadget slots
}

// Wrapper is the unbounded-degree dynamic MSF.
type Wrapper struct {
	n      int
	eng    Engine
	slots  [][]int32    // per original vertex: slot gadget ids; [0] is base
	hosted [][]*edgeRec // parallel to slots: edge hosted at each slot
	edges  map[[2]int]*edgeRec
	free   []int32
	rings  int
	nslots int           // total live slots across vertices (ring invariant)
	byslot map[int32]int // gadget slot -> original vertex

	events      func(u, v int, w int64, added bool)
	cutSides    func(side []int32)
	lastDelReal bool    // last engine delete event was a real (non-ring) edge
	sideScratch []int32 // pooled original-vertex side buffer

	// Applied counts the engine updates this wrapper has fully applied —
	// one per successful single-edge operation, one per batch entry point
	// that reached the engine. OnApplied, when set, fires at the same
	// points, strictly after the update (including its staged slot
	// surgeries and deferred bookkeeping) has drained: the epoch source of
	// the concurrent read plane, which publishes one immutable snapshot
	// per applied update.
	Applied   uint64
	OnApplied func()

	// Pooled batch scratch: the staged-slot op buffer shared by the
	// InsertEdges / DeleteEdges entry points, the record list of a delete
	// batch, and the staged compaction bookkeeping. Reused across batches
	// (contents never retained), so warm batch entry points allocate only
	// their returned error slices.
	opsScratch  []core.BatchOp
	flagScratch []bool
	recScratch  []*edgeRec
	stage       compactStage
	touchedVs   []int
	touchedSet  map[int]bool

	fault *faultinject.Injector // crash points (SetFault; nil no-op)
}

// New wraps a fresh degree-3 engine for n vertices and at most maxEdges
// concurrent edges. mk receives the gadget vertex count.
func New(n, maxEdges int, mk func(gadgetN int) Engine) *Wrapper {
	cap := n + 2*maxEdges
	w := &Wrapper{
		n:      n,
		eng:    mk(cap),
		slots:  make([][]int32, n),
		hosted: make([][]*edgeRec, n),
		edges:  make(map[[2]int]*edgeRec),
		byslot: make(map[int32]int),
	}
	// Base slots are the original ids; extra slots come from the pool.
	for v := 0; v < n; v++ {
		w.slots[v] = []int32{int32(v)}
		w.hosted[v] = []*edgeRec{nil}
		w.byslot[int32(v)] = v
	}
	w.nslots = n
	for id := cap - 1; id >= n; id-- {
		w.free = append(w.free, int32(id))
	}
	w.eng.SetEvents(w.forward)
	if cs, ok := w.eng.(interface{ SetCutSides(f func(side []int32)) }); ok {
		cs.SetCutSides(w.forwardSides)
	}
	return w
}

// N returns the number of original vertices.
func (w *Wrapper) N() int { return w.n }

// applied records one fully applied update and fires the epoch hook.
func (w *Wrapper) applied() {
	w.Applied++
	if w.OnApplied != nil {
		w.OnApplied()
	}
}

// Gadget exposes the wrapped engine (tests).
func (w *Wrapper) Gadget() Engine { return w.eng }

// SetEvents installs a forest-change callback in original-vertex space.
func (w *Wrapper) SetEvents(f func(u, v int, w int64, added bool)) { w.events = f }

// SetFault installs the crash-point injector (fault-injection testing; nil
// keeps every point a no-op).
func (w *Wrapper) SetFault(in *faultinject.Injector) { w.fault = in }

// SetCutSides installs a cut-side callback in original-vertex space: for
// every real (non-ring) forest-edge removal it receives the original
// vertices of the smaller side the cut left, directly after the matching
// events(added=false) call. The slice is pooled and only valid for the
// call. No-op when the wrapped engine does not emit cut sides.
func (w *Wrapper) SetCutSides(f func(side []int32)) { w.cutSides = f }

// forward translates engine events to original-vertex space, dropping ring
// edges. Whether the last delete event named a real edge is recorded
// before the drop, so forwardSides can discard the cut sides of ring-edge
// surgeries (whose tours re-link within the same engine operation — the
// original-graph partition never observes them).
func (w *Wrapper) forward(gu, gv int, wt int64, added bool) {
	if !added {
		w.lastDelReal = wt != RingWeight
	}
	if w.events == nil || wt == RingWeight {
		return
	}
	w.events(w.byslot[int32(gu)], w.byslot[int32(gv)], wt, added)
}

// forwardSides translates the engine's cut side to original-vertex space:
// every original vertex's slots are ring-connected, so all of them land on
// one side of a real-edge cut, and keeping just the base slots (gadget id
// == original id < n) projects the gadget side onto the original vertices.
func (w *Wrapper) forwardSides(side []int32) {
	if w.cutSides == nil || !w.lastDelReal {
		return
	}
	out := w.sideScratch[:0]
	for _, g := range side {
		if int(g) < w.n {
			out = append(out, g)
		}
	}
	w.sideScratch = out
	w.cutSides(out)
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// InsertEdge adds edge (u, v) of weight wt (must be > RingWeight).
func (w *Wrapper) InsertEdge(u, v int, wt int64) error {
	rec, err := w.stageInsert(u, v, wt, nil)
	if err != nil {
		return err
	}
	if err := w.eng.InsertEdge(int(rec.su), int(rec.sv), wt); err != nil {
		panic(fmt.Sprintf("ternary: gadget insert failed: %v", err))
	}
	w.applied()
	return nil
}

// stageInsert validates one insertion, claims its gadget slots and records
// the wrapper bookkeeping; the hosted real edge (rec.su, rec.sv, wt) is
// left for the caller to apply to the engine — singly (InsertEdge) or as
// part of a batch (InsertEdges). With rings == nil, any ring edge a new
// slot needs is applied to the engine immediately; with rings non-nil the
// ring edges are staged into *rings instead, so a whole batch of slot
// surgeries — independent isolated-vertex links — goes through one
// gadget-level engine batch.
func (w *Wrapper) stageInsert(u, v int, wt int64, rings *[]core.BatchOp) (*edgeRec, error) {
	if u < 0 || u >= w.n || v < 0 || v >= w.n {
		return nil, ErrVertex
	}
	if u == v {
		return nil, ErrSelfLoop
	}
	if wt <= RingWeight {
		return nil, ErrWeight
	}
	k := key(u, v)
	if _, dup := w.edges[k]; dup {
		return nil, ErrExists
	}
	if len(w.free) < 2 {
		return nil, ErrCapacity
	}
	// The >= 2 pre-check above guarantees both openSlot calls succeed: each
	// consumes at most one pool slot.
	su := w.openSlot(u, rings)
	sv := w.openSlot(v, rings)
	rec := &edgeRec{u: k[0], v: k[1], w: wt, su: su, sv: sv}
	if k[0] == v {
		rec.su, rec.sv = sv, su
	}
	w.hostAt(u, su, rec)
	w.hostAt(v, sv, rec)
	w.edges[k] = rec
	return rec, nil
}

// openSlot returns a slot of x able to host a new edge, appending a slot
// (and ring edge) when all are busy. With rings non-nil the ring edge is
// staged into *rings for a later engine batch instead of being applied
// immediately. The caller (stageInsert) guarantees a free pool slot.
func (w *Wrapper) openSlot(x int, rings *[]core.BatchOp) int32 {
	s, h := w.slots[x], w.hosted[x]
	if h[0] == nil && len(s) == 1 {
		return s[0] // isolated vertex: base slot is free
	}
	if len(w.free) == 0 {
		panic("ternary: openSlot without a free pool slot")
	}
	g := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	last := s[len(s)-1]
	if rings != nil {
		*rings = append(*rings, core.BatchOp{U: int(last), V: int(g), W: RingWeight})
	} else if err := w.eng.InsertEdge(int(last), int(g), RingWeight); err != nil {
		panic(fmt.Sprintf("ternary: ring insert failed: %v", err))
	}
	w.rings++
	w.nslots++
	w.slots[x] = append(s, g)
	w.hosted[x] = append(h, nil)
	w.byslot[g] = x
	return g
}

// closeSlot removes slot index i of x, which must be the last and unhosted.
// With stage non-nil the ring deletion is staged for the compaction batch
// instead of being applied to the engine immediately; the wrapper
// bookkeeping updates either way.
func (w *Wrapper) closeSlot(x, i int, stage *compactStage) {
	s := w.slots[x]
	if i != len(s)-1 || w.hosted[x][i] != nil {
		panic("ternary: closeSlot misuse")
	}
	if i == 0 {
		return // base slot is permanent
	}
	g := s[i]
	if stage != nil {
		// The byslot entry and the free-list return are deferred to the
		// stage's release (after the engine batch): forest-change events the
		// engine emits while applying the batch still name g, and the event
		// forwarding translates them through byslot.
		stage.rings = append(stage.rings, [2]int32{s[i-1], g})
		stage.retired = append(stage.retired, g)
	} else {
		if err := w.eng.DeleteEdge(int(s[i-1]), int(g)); err != nil {
			panic(fmt.Sprintf("ternary: ring delete failed: %v", err))
		}
		delete(w.byslot, g)
		w.free = append(w.free, g)
	}
	w.rings--
	w.nslots--
	w.slots[x] = s[:i]
	w.hosted[x] = w.hosted[x][:i]
}

func (w *Wrapper) hostAt(x int, slot int32, rec *edgeRec) {
	for i, g := range w.slots[x] {
		if g == slot {
			w.hosted[x][i] = rec
			return
		}
	}
	panic("ternary: hostAt: slot not found")
}

// DeleteEdge removes edge (u, v).
func (w *Wrapper) DeleteEdge(u, v int) error {
	k := key(u, v)
	rec, ok := w.edges[k]
	if !ok {
		return ErrMissing
	}
	if err := w.eng.DeleteEdge(int(rec.su), int(rec.sv)); err != nil {
		panic(fmt.Sprintf("ternary: gadget delete failed: %v", err))
	}
	delete(w.edges, k)
	w.compact(rec.u, rec.su)
	w.compact(rec.v, rec.sv)
	w.applied()
	return nil
}

// compact frees the slot of x that hosted a just-deleted edge, moving the
// last slot's hosted edge into it when the freed slot is interior.
func (w *Wrapper) compact(x int, slot int32) {
	s, h := w.slots[x], w.hosted[x]
	idx := -1
	for i, g := range s {
		if g == slot {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("ternary: compact: slot not found")
	}
	h[idx] = nil
	last := len(s) - 1
	if idx != last && h[last] != nil {
		w.moveHosted(x, last, idx, nil)
	}
	// The last slot is now unhosted; retire it (base stays).
	if last > 0 && h[last] == nil {
		w.closeSlot(x, last, nil)
	}
}

// moveHosted moves the edge hosted at slot index from of x into the
// unhosted slot index to (an engine delete + insert), repairing the
// record's hosting. With stage non-nil no engine ops run: the record's
// pre-batch hosting is captured on its first move — a record can move once
// per endpoint within one compaction batch — and the stage later emits one
// coalesced delete of the original hosting plus one insert of the final
// hosting per moved record.
func (w *Wrapper) moveHosted(x, from, to int, stage *compactStage) {
	s, h := w.slots[x], w.hosted[x]
	mv := h[from]
	other := mv.sv
	if mv.su != s[from] {
		if mv.sv != s[from] {
			panic("ternary: hosted record inconsistent")
		}
		other = mv.su
	}
	if stage != nil {
		if _, seen := stage.orig[mv]; !seen {
			stage.orig[mv] = [2]int32{mv.su, mv.sv}
			stage.moved = append(stage.moved, mv)
		}
	} else {
		if err := w.eng.DeleteEdge(int(s[from]), int(other)); err != nil {
			panic(fmt.Sprintf("ternary: move delete failed: %v", err))
		}
		if err := w.eng.InsertEdge(int(s[to]), int(other), mv.w); err != nil {
			panic(fmt.Sprintf("ternary: move insert failed: %v", err))
		}
	}
	if mv.su == s[from] {
		mv.su = s[to]
	} else {
		mv.sv = s[to]
	}
	h[to] = mv
	h[from] = nil
}

// Connected reports whether u and v are connected in the original graph.
func (w *Wrapper) Connected(u, v int) bool {
	return w.eng.Connected(u, v) // base slots carry the original ids
}

// Weight returns the MSF weight of the original graph.
func (w *Wrapper) Weight() int64 {
	return w.eng.Weight() - int64(w.rings)*RingWeight
}

// ForestSize returns the number of original MSF edges.
func (w *Wrapper) ForestSize() int { return w.eng.ForestSize() - w.rings }

// ForestEdges calls f for every original MSF edge.
func (w *Wrapper) ForestEdges(f func(u, v int, wt int64) bool) {
	w.eng.ForestEdges(func(gu, gv int, wt int64) bool {
		if wt == RingWeight {
			return true
		}
		return f(w.byslot[int32(gu)], w.byslot[int32(gv)], wt)
	})
}

// M returns the number of live original edges.
func (w *Wrapper) M() int { return len(w.edges) }

// ExportComponents fills comp[v] with a dense component id for every
// original vertex v in [0, upto), delegating to the wrapped engine's
// snapshot-export sweep (base slots carry the original vertex ids, and the
// ring paths keep every extra slot in its vertex's component, so the
// gadget partition restricted to the base slots is exactly the original
// partition). Returns false when the wrapped engine has no export hook
// (baseline gadgets in tests).
func (w *Wrapper) ExportComponents(comp []int32, upto int) bool {
	ex, ok := w.eng.(interface{ ExportComponents(comp []int32, upto int) })
	if !ok {
		return false
	}
	ex.ExportComponents(comp, upto)
	return true
}

// BatchEngine is the optional batch interface of a wrapped engine: an
// engine exposing the staged batch-application pipeline (core.MSF). When
// the wrapped engine implements it, the wrapper's InsertEdges/DeleteEdges
// translate whole batches of original-graph updates into one gadget-level
// batch, so classification, sharding and the parallel apply stages see the
// full batch instead of one edge at a time.
type BatchEngine interface {
	ApplyBatch(ops []core.BatchOp) []error
}

// BatchEdge is one item of a batch insertion through InsertEdges — an alias
// of the shared batch.Edge type, so the wrapper's batch entry points double
// as the sparsification tree's BatchEngine implementation.
type BatchEdge = batch.Edge

// InsertEdges inserts a batch of edges in order, returning one error slot
// per item (nil on success, else the error InsertEdge would have
// returned). Slot allocation and ring maintenance are sequential wrapper
// bookkeeping, but the ring-edge slot surgeries — independent
// isolated-vertex links — are staged and applied inside the same single
// engine batch as the hosted real edges (each ring precedes the real edge
// whose slot it opened), so the engine sees one ApplyBatch with one
// deferred aggregate flush instead of one engine insert per slot. With
// distinct real weights the resulting forest is identical to per-edge
// insertion (the MSF is unique; ring edges are forced into every gadget
// MSF).
func (w *Wrapper) InsertEdges(items []BatchEdge) []error {
	errs := make([]error, len(items))
	be, ok := w.eng.(BatchEngine)
	if !ok {
		for i, it := range items {
			errs[i] = w.InsertEdge(it.U, it.V, it.W)
		}
		return errs
	}
	ops := w.opsScratch[:0]
	for i, it := range items {
		rec, err := w.stageInsert(it.U, it.V, it.W, &ops)
		if err != nil {
			errs[i] = err
			continue
		}
		ops = append(ops, core.BatchOp{U: int(rec.su), V: int(rec.sv), W: it.W})
	}
	if len(ops) > 0 {
		w.fault.Hit(fpBatchInsert)
		for _, err := range be.ApplyBatch(ops) {
			if err != nil {
				panic(fmt.Sprintf("ternary: gadget batch insert failed: %v", err))
			}
		}
	}
	applied := len(ops) > 0
	w.opsScratch = ops[:0]
	w.assertRings()
	if applied {
		w.applied()
	}
	return errs
}

// assertRings checks the O(1) ring-edge invariants after a batch: every
// non-base slot carries exactly one ring edge (rings == live slots − n),
// and — since ring paths are cycle-free and lighter than every real edge,
// forcing all of them into the gadget MSF — the original-graph forest size
// implied by the engine stays within [0, n−1].
func (w *Wrapper) assertRings() {
	if w.rings != w.nslots-w.n {
		panic(fmt.Sprintf("ternary: ring invariant: %d rings, %d slots, n=%d", w.rings, w.nslots, w.n))
	}
	if fs := w.eng.ForestSize() - w.rings; fs < 0 || fs > w.n-1 {
		panic(fmt.Sprintf("ternary: ring invariant: implied forest size %d outside [0, %d]", fs, w.n-1))
	}
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). The hosted real edges
// AND the slot-path compaction surgeries they trigger are removed/applied
// as one engine batch: every deleted hosting is cleared first (so a move
// can never resurrect a batch-deleted edge), each touched vertex's path is
// compacted once in first-touch order with its move and ring-retirement
// surgeries staged, and the engine sees a single ApplyBatch — its planner
// classifies tree versus non-tree deletions across real deletions, moves
// and ring retirements together, orders non-tree deletions first, and runs
// one deferred aggregate flush for the whole batch. The ring-count
// invariant is asserted after the batch.
func (w *Wrapper) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	be, ok := w.eng.(BatchEngine)
	if !ok {
		for i, k := range keys {
			errs[i] = w.DeleteEdge(k[0], k[1])
		}
		return errs
	}
	ops := w.opsScratch[:0]
	recs := w.recScratch[:0]
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		rec, ok := w.edges[k]
		if !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(w.edges, k)
		ops = append(ops, core.BatchOp{Del: true, U: int(rec.su), V: int(rec.sv)})
		recs = append(recs, rec)
	}
	if len(ops) == 0 {
		w.opsScratch = ops
		return errs
	}
	vs := w.touchedVs[:0]
	if w.touchedSet == nil {
		w.touchedSet = make(map[int]bool, 2*len(recs))
	}
	touched := w.touchedSet
	clear(touched)
	for _, rec := range recs {
		w.clearHost(rec.u, rec.su)
		w.clearHost(rec.v, rec.sv)
		for _, x := range [2]int{rec.u, rec.v} {
			if !touched[x] {
				touched[x] = true
				vs = append(vs, x)
			}
		}
	}
	w.stage.reset()
	for _, x := range vs {
		w.compactVertex(x, &w.stage)
	}
	ops = w.stage.emit(ops)
	w.fault.Hit(fpBatchDelete)
	for _, err := range be.ApplyBatch(ops) {
		if err != nil {
			panic(fmt.Sprintf("ternary: gadget batch delete failed: %v", err))
		}
	}
	w.stage.release(w)
	w.opsScratch, w.touchedVs = ops[:0], vs[:0]
	clear(recs)
	w.recScratch = recs[:0]
	w.assertRings()
	w.applied()
	return errs
}

// clearHost unhosts the edge at the given slot of x.
func (w *Wrapper) clearHost(x int, slot int32) {
	for i, g := range w.slots[x] {
		if g == slot {
			w.hosted[x][i] = nil
			return
		}
	}
	panic("ternary: clearHost: slot not found")
}

// compactVertex restores slot-path compactness for x after a batch of
// deletions: holes below the last slot are filled by moving the last
// hosted edge down (engine delete + insert, as in compact), and trailing
// unhosted slots are retired. With stage non-nil every engine op is staged
// instead of applied — the move surgeries of distinct vertices are
// independent, so a whole delete batch's compactions run as one gadget
// ApplyBatch.
func (w *Wrapper) compactVertex(x int, stage *compactStage) {
	for {
		s, h := w.slots[x], w.hosted[x]
		last := len(s) - 1
		if last > 0 && h[last] == nil {
			w.closeSlot(x, last, stage)
			continue
		}
		hole := -1
		for i := 0; i < last; i++ {
			if h[i] == nil {
				hole = i
				break
			}
		}
		if hole < 0 {
			return
		}
		w.moveHosted(x, last, hole, stage)
	}
}

// compactStage accumulates the staged engine ops of one delete batch's
// slot-path compactions. Moves are coalesced per record: only the original
// hosting (before the batch's first move) and the final hosting matter to
// the engine, so a record whose both endpoints move still emits exactly one
// delete + one insert. Ring retirements are plain deletions of pre-batch
// ring edges. All staged deletions name edges live in the engine before the
// batch and all staged insertions name slot pairs free after every staged
// deletion, so the engine's plan order (deletions before insertions) keeps
// every op applicable and the gadget degree bound intact throughout.
type compactStage struct {
	moved   []*edgeRec            // first-move order (deterministic)
	orig    map[*edgeRec][2]int32 // record -> pre-batch hosting
	rings   [][2]int32            // retired ring edges, retirement order
	retired []int32               // retired slots, pending byslot/free release
}

func (st *compactStage) reset() {
	clear(st.moved)
	st.moved = st.moved[:0]
	st.rings = st.rings[:0]
	st.retired = st.retired[:0]
	if st.orig == nil {
		st.orig = make(map[*edgeRec][2]int32)
	} else {
		clear(st.orig)
	}
}

// release finishes the deferred bookkeeping of the retired slots once the
// engine batch — and every forest-change event it emitted — is done.
func (st *compactStage) release(w *Wrapper) {
	for _, g := range st.retired {
		delete(w.byslot, g)
		w.free = append(w.free, g)
	}
	st.retired = st.retired[:0]
}

// emit appends the staged compaction ops to a batch: coalesced move
// deletions, ring retirements, then the move re-insertions at the final
// hosting. Deletion keys are pairwise distinct (distinct records, distinct
// ring edges) so the engine's duplicate-deletion filter never fires.
func (st *compactStage) emit(ops []core.BatchOp) []core.BatchOp {
	for _, rec := range st.moved {
		o := st.orig[rec]
		if o[0] == rec.su && o[1] == rec.sv {
			continue // net no-op move (defensive; moves always relocate)
		}
		ops = append(ops, core.BatchOp{Del: true, U: int(o[0]), V: int(o[1])})
	}
	for _, r := range st.rings {
		ops = append(ops, core.BatchOp{Del: true, U: int(r[0]), V: int(r[1])})
	}
	for _, rec := range st.moved {
		o := st.orig[rec]
		if o[0] == rec.su && o[1] == rec.sv {
			continue
		}
		ops = append(ops, core.BatchOp{U: int(rec.su), V: int(rec.sv), W: rec.w})
	}
	return ops
}

// CheckGadget verifies wrapper bookkeeping (tests): slot paths are compact
// and every edge's hosting is mutual.
func (w *Wrapper) CheckGadget() error {
	for v := 0; v < w.n; v++ {
		s, h := w.slots[v], w.hosted[v]
		if len(s) != len(h) {
			return fmt.Errorf("vertex %d: slots/hosted length mismatch", v)
		}
		deg := 0
		for i := range s {
			if w.byslot[s[i]] != v {
				return fmt.Errorf("vertex %d: byslot mismatch", v)
			}
			if h[i] != nil {
				deg++
			} else if i != 0 {
				return fmt.Errorf("vertex %d: interior hole at slot %d", v, i)
			}
		}
		want := 0
		for _, rec := range w.edges {
			if rec.u == v || rec.v == v {
				want++
			}
		}
		if deg != want {
			return fmt.Errorf("vertex %d: hosts %d edges, want %d", v, deg, want)
		}
		if want > 1 && len(s) != want {
			return fmt.Errorf("vertex %d: %d slots for %d edges", v, len(s), want)
		}
	}
	return nil
}
