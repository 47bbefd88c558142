package lct

import (
	"testing"

	"parmsf/internal/xrand"
)

// TestHangMatchesLink builds one random forest twice — by Hang in DFS order
// and by Link in edge order — then runs the same mixed Link / Cut /
// Connected / PathMaxEdge sequence on both, checking every answer against
// the naive reference. Path maxima are compared by weight: the two
// structures may break ties between equal-weight edges differently.
func TestHangMatchesLink(t *testing.T) {
	const n = 90
	rng := xrand.New(77)
	type tedge struct {
		u, v int
		w    int64
	}
	var tes []tedge
	for v := 1; v < n; v++ {
		if rng.Intn(5) == 0 {
			continue // leave some trees apart
		}
		tes = append(tes, tedge{rng.Intn(v), v, rng.Int63() % 40})
	}

	type pair [2]int
	key := func(u, v int) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	ref := newRef(n)
	linked, hung := New(n), New(n)
	handles := [2]map[pair]*Edge{{}, {}}
	adj := make([][]tedge, n)
	for _, e := range tes {
		ref.link(e.u, e.v, e.w)
		handles[0][key(e.u, e.v)] = linked.Link(e.u, e.v, e.w)
		adj[e.u] = append(adj[e.u], tedge{e.u, e.v, e.w})
		adj[e.v] = append(adj[e.v], tedge{e.v, e.u, e.w})
	}
	seen := make([]bool, n)
	for r := 0; r < n; r++ {
		if seen[r] {
			continue
		}
		seen[r] = true
		type frame struct{ v, idx int }
		stack := []frame{{r, 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx == len(adj[f.v]) {
				stack = stack[:len(stack)-1]
				continue
			}
			h := adj[f.v][f.idx]
			f.idx++
			if seen[h.v] {
				continue
			}
			seen[h.v] = true
			handles[1][key(h.u, h.v)] = hung.Hang(h.v, h.u, h.w)
			stack = append(stack, frame{h.v, 0})
		}
	}

	forests := [2]*Forest{linked, hung}
	live := make([]pair, 0, len(tes))
	for _, e := range tes {
		live = append(live, key(e.u, e.v))
	}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0: // link a random pair across trees
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || ref.connected(u, v) {
				continue
			}
			w := rng.Int63() % 40
			ref.link(u, v, w)
			for i, f := range forests {
				handles[i][key(u, v)] = f.Link(u, v, w)
			}
			live = append(live, key(u, v))
		case 1: // cut a random live edge
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			p := live[j]
			ref.cut(p[0], p[1])
			for i, f := range forests {
				f.Cut(handles[i][p])
				delete(handles[i], p)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // query
			u, v := rng.Intn(n), rng.Intn(n)
			want := ref.connected(u, v)
			for i, f := range forests {
				if got := f.Connected(u, v); got != want {
					t.Fatalf("step %d forest %d: Connected(%d,%d) = %v, want %v", step, i, u, v, got, want)
				}
				if !want || u == v {
					continue
				}
				wm, _ := ref.pathMax(u, v)
				if gm := f.PathMaxEdge(u, v); gm.W != wm {
					t.Fatalf("step %d forest %d: PathMax(%d,%d) = %d, want %d", step, i, u, v, gm.W, wm)
				}
			}
		}
	}
}

// TestHangPanicsOnNonRoot checks Hang's O(1) precondition: a child that
// already hangs under a parent, or sits below the top of its preferred
// path, is rejected.
func TestHangPanicsOnNonRoot(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Hang did not panic", name)
			}
		}()
		f()
	}
	f := New(4)
	f.Hang(1, 0, 5)
	mustPanic("hung child", func() { f.Hang(1, 2, 3) })

	g := New(4)
	g.Link(0, 1, 5)
	g.PathMaxEdge(0, 1) // leaves 1 a splay root with the path 0..1 on its left
	mustPanic("non-root child", func() { g.Hang(1, 2, 3) })
}
