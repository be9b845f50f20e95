package tprtree

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/tree.golden")

// roadObj draws an object moving along one of the two axes, like
// randomWorkload's, at reference time now.
func roadObj(rng *rand.Rand, id model.ObjectID, now float64) model.Object {
	speed := rng.Float64()*200 - 100
	vel := geom.V(speed, rng.NormFloat64()*2)
	if rng.Intn(2) == 0 {
		vel = geom.V(rng.NormFloat64()*2, speed)
	}
	return model.Object{ID: id, Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000), Vel: vel, T: now}
}

// TestTreeShapeGolden pins the pages every restructuring path writes against
// testdata/tree.golden. Seeded histories on a uniform and a road-skewed
// population, each over a pool of 3 frames (every page round-trips through
// eviction) and one of 30, grow the tree to height 3, churn it with updates,
// inserts and deletes, and delete it down to nothing. On the way they run
// leaf and internal forced reinserts, leaf and internal splits, root growth,
// the dissolve of underfull leaves and internal nodes, and root collapse.
// Two hand-built height-3 trees then condense into full nodes: one collapses
// onto a full child, so the orphans of the dissolved one overflow the new
// root and split it; in the other the orphans force reinserts at two levels
// in one delete.
// Every 1,000 operations the golden records the height, the size, the pool
// misses, write-backs and hits those operations cost, and an FNV-64a hash
// of every reachable page's 4 KB, root first and children in slot order.
// A refactor that claims to build the same tree with the same page accesses
// must leave this file byte-identical; rerun with -update only when a change
// in the tree or its accesses is intended, and review
// `git diff testdata/tree.golden`.
func TestTreeShapeGolden(t *testing.T) {
	var out strings.Builder
	for _, pop := range []struct {
		name string
		draw func(*rand.Rand, model.ObjectID, float64) model.Object
	}{{"uniform", uniformObj}, {"road", roadObj}} {
		for _, pages := range []int{3, 30} {
			shapeHistory(t, &out, pop.name, pop.draw, pages)
		}
	}
	for _, pages := range []int{3, 30} {
		// The root collapses onto a full child; the orphaned leaf entries
		// overflow the new root, which splits.
		handBuiltHistory(t, &out, "full-root", pages, [2]int{internalMin, leafMin}, [2]int{InternalCap, leafMin})
		// The orphaned leaf entries overflow a full level-1 node, and the
		// orphaned records the full leaves beside theirs: both force a
		// reinsert, so entries and records wait in the reinsert queue
		// together, the records on top.
		handBuiltHistory(t, &out, "full-siblings", pages, [2]int{internalMin, LeafCap}, [2]int{InternalCap, LeafCap}, [2]int{InternalCap, LeafCap})
	}
	got := out.String()
	path := filepath.Join("testdata", "tree.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("tree.golden line %d:\n got  %s\n want %s\n(rerun with -update only if the change is intended)", i+1, g, w)
			}
		}
	}
}

// shapeHistory runs one seeded history and appends its checkpoint lines.
func shapeHistory(t *testing.T, out *strings.Builder, name string, draw func(*rand.Rand, model.ObjectID, float64) model.Object, pages int) {
	const grow, churn = 8000, 4000
	pool := storage.NewBufferPool(storage.NewMemStore(), pages)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	var live []model.Object
	next := model.ObjectID(1)
	now := 0.0
	insert := func() {
		o := draw(rng, next, now)
		next++
		if err := tr.Insert(o); err != nil {
			t.Fatalf("%s pool %d: Insert: %v", name, pages, err)
		}
		live = append(live, o)
	}
	remove := func() {
		i := rng.Intn(len(live))
		if err := tr.Delete(live[i]); err != nil {
			t.Fatalf("%s pool %d: Delete: %v", name, pages, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	checkpoint := shapeCheckpoint(t, out, name, tr, pool)
	op := 0
	step := func(fn func()) {
		now += 0.01
		fn()
		if op++; op%1000 == 0 {
			checkpoint(op)
		}
	}
	for range grow {
		step(insert)
	}
	for range churn {
		step(func() {
			switch r := rng.Intn(10); {
			case r < 6:
				i := rng.Intn(len(live))
				o := draw(rng, live[i].ID, now)
				if err := tr.Update(live[i], o); err != nil {
					t.Fatalf("%s pool %d: Update: %v", name, pages, err)
				}
				live[i] = o
			case r < 8:
				insert()
			default:
				remove()
			}
		})
	}
	for len(live) > 0 {
		step(remove)
	}
	checkpoint(op)
	if tr.height != 1 || tr.Len() != 0 {
		t.Fatalf("%s pool %d: emptied tree has height %d and size %d", name, pages, tr.height, tr.Len())
	}
}

// shapeCheckpoint returns the function that appends one checkpoint line:
// the pool counters of the operations since the previous one (the walk's
// own accesses are not the history's), then the walk.
func shapeCheckpoint(t *testing.T, out *strings.Builder, name string, tr *Tree, pool *storage.BufferPool) func(op int) {
	last := pool.Stats()
	return func(op int) {
		s := pool.Stats()
		hash, nodes := pageHash(t, tr)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s pool %d op %d: %v", name, pool.Capacity(), op, err)
		}
		fmt.Fprintf(out, "%s pool=%d op=%d height=%d size=%d nodes=%d hash=%016x misses=%d writes=%d hits=%d\n",
			name, pool.Capacity(), op, tr.height, tr.Len(), nodes, hash, s.Misses-last.Misses, s.Writes-last.Writes, s.Hits-last.Hits)
		last = pool.Stats()
	}
}

// handBuiltHistory hand-builds a height-3 tree whose root's i-th child
// holds parents[i][0] leaves of parents[i][1] records each, except that the
// first leaf holds leafMin. The first child holds internalMin leaves, so
// deleting a record of its first leaf dissolves that leaf, then the child,
// and their orphans are reinserted. Random deletes then drain the tree.
func handBuiltHistory(t *testing.T, out *strings.Builder, name string, pages int, parents ...[2]int) {
	pool := storage.NewBufferPool(storage.NewMemStore(), pages)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var live []model.Object
	page := func() storage.PageID {
		id, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	write := func(n *node) entry {
		if err := tr.writeNode(n); err != nil {
			t.Fatal(err)
		}
		return entry{child: n.id, mr: n.boundAt(0)}
	}
	top := &node{id: page(), level: 2}
	for _, p := range parents {
		parent := &node{id: page(), level: 1}
		for range p[0] {
			leaf := &node{id: page(), level: 0}
			records := p[1]
			if len(live) == 0 {
				records = leafMin
			}
			for i := range records {
				o := model.Object{
					ID:  model.ObjectID(len(live) + 1),
					Pos: geom.V(float64(len(parent.entries))*1000+float64(i%6)*100, float64(i/6)*100),
					Vel: geom.V(float64(i%3-1), float64(i%5-2)),
				}
				leaf.entries = append(leaf.entries, leafEntry(o))
				live = append(live, o)
			}
			parent.entries = append(parent.entries, write(leaf))
		}
		top.entries = append(top.entries, write(parent))
	}
	write(top)
	if err := pool.Free(tr.root); err != nil {
		t.Fatal(err)
	}
	tr.root, tr.height, tr.size = top.id, 3, len(live)
	checkpoint := shapeCheckpoint(t, out, name, tr, pool)
	checkpoint(0)

	rng := rand.New(rand.NewSource(45))
	for op := 1; len(live) > 0; op++ {
		i := rng.Intn(len(live))
		if op == 1 {
			i = 0 // the first record of the first leaf
		}
		if err := tr.Delete(live[i]); err != nil {
			t.Fatalf("%s pool %d op %d: Delete: %v", name, pages, op, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if op == 1 || op%1000 == 0 || len(live) == 0 {
			checkpoint(op)
		}
	}
}

// pageHash hashes the bytes of every reachable page, root first and each
// node's children in slot order, and counts the pages.
func pageHash(t *testing.T, tr *Tree) (uint64, int) {
	h := fnv.New64a()
	nodes := 0
	var rec func(id storage.PageID, level int)
	rec = func(id storage.PageID, level int) {
		nodes++
		var children []storage.PageID
		if err := tr.view(id, level, func(data []byte, count int) {
			h.Write(data)
			for i := 0; level > 0 && i < count; i++ {
				children = append(children, getChild(entrySlot(data, i)))
			}
		}); err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			rec(c, level-1)
		}
	}
	rec(tr.root, tr.height-1)
	return h.Sum64(), nodes
}
