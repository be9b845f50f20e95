package tprtree

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// uniformObj draws an object with uniform position and velocity (the
// uniform-tpr workload's shape) at reference time now.
func uniformObj(rng *rand.Rand, id model.ObjectID, now float64) model.Object {
	return model.Object{
		ID:  id,
		Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
		Vel: geom.V(rng.Float64()*200-100, rng.Float64()*200-100),
		T:   now,
	}
}

// newHeight3Tree inserts n uniform objects, 0.001 ts apart, into a fresh
// tree over a pool of poolPages frames and returns it with the objects.
func newHeight3Tree(tb testing.TB, n, poolPages int) (*Tree, *storage.BufferPool, []model.Object) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	pool := storage.NewBufferPool(storage.NewMemStore(), poolPages)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	objs := make([]model.Object, n)
	for i := range objs {
		objs[i] = uniformObj(rng, model.ObjectID(i+1), float64(i)*0.001)
		if err := tr.Insert(objs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if tr.Height() != 3 {
		tb.Fatalf("height %d, want 3", tr.Height())
	}
	return tr, pool, objs
}

func accesses(pool *storage.BufferPool) int64 {
	s := pool.Stats()
	return s.Hits + s.Misses
}

// insertLeaf returns the leaf an Insert of o would choose and how many
// records it holds.
func insertLeaf(t *testing.T, tr *Tree, o model.Object) (id storage.PageID, count int) {
	t.Helper()
	now := max(tr.clock, o.T)
	id = tr.root
	for level := tr.height - 1; level >= 0; level-- {
		if err := tr.view(id, level, func(data []byte, n int) {
			if count = n; level > 0 {
				ci := tr.chooseSubtree(data, n, objRect(o).Rebase(now), now)
				id = getChild(entrySlot(data, ci))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return id, count
}

// deleteVisits returns how many pages Delete's containment search for o
// visits, and the leaf that holds o with its record count.
func deleteVisits(t *testing.T, tr *Tree, o model.Object) (visits int, leaf storage.PageID, leafCount int) {
	t.Helper()
	var rec func(id storage.PageID, level int) bool
	rec = func(id storage.PageID, level int) bool {
		visits++
		n, err := tr.readNode(id, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range n.objs {
			if cand.ID == o.ID {
				leaf, leafCount = id, len(n.objs)
				return true
			}
		}
		for _, e := range n.entries {
			var slot [internalEntrySize]byte
			putMR(slot[:], e.mr)
			if entryMayContain(slot[:], o) && rec(e.child, level-1) {
				return true
			}
		}
		return false
	}
	if !rec(tr.root, tr.height-1) {
		t.Fatalf("object %d not found", o.ID)
	}
	return visits, leaf, leafCount
}

// TestPointOpPageAccesses pins the page budget in the package comment on a
// height-3 tree with every page cached: 2*height-1 = 5 pool accesses for an
// Insert into a leaf with room and for a Delete whose containment search has
// one candidate per level and leaves no node underfull (a tree that decodes
// and re-reads pays 6 and 9), one more per false candidate a Delete visits,
// and ceilings for the two structural cases measured at PR 20 on this same
// history (the tree is the same tree, operation for operation).
func TestPointOpPageAccesses(t *testing.T) {
	const (
		pointOp = 5
		// The first insert of this history that meets a full leaf: a forced
		// reinsert of 25 records, each a point insert of its own. PR 20: 157; now 139.
		overflowCeiling = 157 + 3 // + the descent that found the leaf full
		// The first delete that leaves a leaf underfull: 33 orphans, each a
		// point insert. PR 20: 207; now 172.
		underflowCeiling = 207
	)
	tr, pool, objs := newHeight3Tree(t, 20000, 2000)
	rng := rand.New(rand.NewSource(6))
	now := tr.clock

	plainInserts, overflows := 0, 0
	for id := model.ObjectID(len(objs) + 1); plainInserts < 200 || overflows == 0; id++ {
		now += 0.001
		o := uniformObj(rng, id, now)
		_, count := insertLeaf(t, tr, o)
		before := accesses(pool)
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		got := accesses(pool) - before
		switch {
		case count < LeafCap:
			plainInserts++
			if got != pointOp {
				t.Fatalf("Insert into a leaf of %d: %d pool accesses, want %d", count, got, pointOp)
			}
		case overflows == 0:
			overflows++
			if got <= pointOp || got > overflowCeiling {
				t.Fatalf("overflowing Insert: %d pool accesses, want (%d, %d]", got, pointOp, overflowCeiling)
			}
		}
		objs = append(objs, o)
	}

	plainDeletes, underflows := 0, 0
	for i := 0; plainDeletes < 200 || underflows == 0; i++ {
		if i == len(objs) {
			t.Fatalf("ran out of objects: %d plain deletes, %d underflows", plainDeletes, underflows)
		}
		o := objs[i]
		visits, _, leafCount := deleteVisits(t, tr, o)
		before := accesses(pool)
		if err := tr.Delete(o); err != nil {
			t.Fatal(err)
		}
		got := accesses(pool) - before
		switch {
		case leafCount > leafMin:
			plainDeletes++
			if want := int64(pointOp + visits - tr.height); got != want {
				t.Fatalf("Delete visiting %d pages: %d pool accesses, want %d", visits, got, want)
			}
		case underflows == 0:
			underflows++
			if got <= pointOp || got > underflowCeiling {
				t.Fatalf("underflowing Delete: %d pool accesses, want (%d, %d]", got, pointOp, underflowCeiling)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPointOpsDoNotAllocate: a cached Delete+Insert that changes no
// structure — the steady state of a TPR* update — allocates nothing, and a
// Search allocates only its result slice.
func TestPointOpsDoNotAllocate(t *testing.T) {
	tr, _, objs := newHeight3Tree(t, 8000, 2000)
	var o model.Object
	for _, o = range objs { // the first object whose update restructures nothing
		_, _, leafCount := deleteVisits(t, tr, o)
		if _, into := insertLeaf(t, tr, o); leafCount > leafMin+1 && into < LeafCap-1 {
			break
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Delete(o); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Delete+Insert allocated %.1f times per run, want 0", allocs)
	}

	q := model.RangeQuery{Kind: model.TimeSlice, Rect: geom.R(40000, 40000, 46000, 46000), Now: tr.clock, T0: tr.clock + 10}
	ids, err := tr.Search(q)
	if err != nil || len(ids) < 8 {
		t.Fatalf("Search = %d ids, %v; want a result that grows the slice a few times", len(ids), err)
	}
	growths := math.Ceil(math.Log2(float64(len(ids)))) + 1 // append doubles from 1
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := tr.Search(q); err != nil {
			t.Fatal(err)
		}
	}); allocs > growths {
		t.Fatalf("Search returning %d ids allocated %.1f times, want <= %.0f (the result slice)", len(ids), allocs, growths)
	}
}

// TestUpdateDoesNotDirtyUnchangedPages: the two point-operation attempts
// that pin a leaf and change nothing — a Delete that does not find its id,
// an Insert that finds the leaf full — must not cost a write-back.
func TestUpdateDoesNotDirtyUnchangedPages(t *testing.T) {
	tr, pool, objs := newHeight3Tree(t, 8000, 2000)
	flushedWrites := func() int64 {
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return pool.Stats().Writes
	}
	base := flushedWrites()

	ghost := objs[0]
	ghost.ID = 1 << 40 // same trajectory, so the search reaches objs[0]'s leaf
	if err := tr.Delete(ghost); err != model.ErrNotFound {
		t.Fatalf("Delete of an absent id: %v", err)
	}
	if w := flushedWrites(); w != base {
		t.Fatalf("Delete of an absent id wrote back %d pages", w-base)
	}

	rng := rand.New(rand.NewSource(8))
	for id := model.ObjectID(len(objs) + 1); ; id++ {
		o := uniformObj(rng, id, tr.clock)
		if _, count := insertLeaf(t, tr, o); count < LeafCap {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
			continue
		}
		base = flushedWrites()
		done, err := tr.insertInPlace(o, tr.clock)
		if done || err != nil {
			t.Fatalf("insertInPlace into a full leaf = %v, %v", done, err)
		}
		if w := flushedWrites(); w != base {
			t.Fatalf("Insert attempt on a full leaf wrote back %d pages", w-base)
		}
		break
	}
}

// TestCorruptPageIsAnError scribbles an impossible count, an unknown tag and
// a wrong level onto a live leaf and the live root and runs every reader
// over them: each must report storage.ErrCorruptPage, none may index past
// the page (at PR 20 the count made Search panic and the tag error matched
// no sentinel).
func TestCorruptPageIsAnError(t *testing.T) {
	scribbles := map[string]func(data []byte){
		"count": func(data []byte) { binary.LittleEndian.PutUint16(data[2:4], 0xFFFF) },
		"tag":   func(data []byte) { data[0] = 0x7F },
		"level": func(data []byte) { data[1] ^= 1 },
		"empty": func(data []byte) { binary.LittleEndian.PutUint16(data[2:4], 0) },
	}
	for name, scribble := range scribbles {
		for _, where := range []string{"leaf", "root"} {
			if name == "empty" && where == "leaf" {
				continue // an empty leaf is a valid page
			}
			t.Run(name+"/"+where, func(t *testing.T) {
				tr, pool, objs := newHeight3Tree(t, 8000, 2000)
				var o model.Object
				var page storage.PageID
				for _, o = range objs { // an object a second copy of which would join its leaf
					_, page, _ = deleteVisits(t, tr, o)
					if into, _ := insertLeaf(t, tr, o); into == page {
						break
					}
				}
				if where == "root" {
					page = tr.root
				}
				if err := pool.Write(page, scribble); err != nil {
					t.Fatal(err)
				}
				// A window and a kNN around o, so both reach the scribbled leaf.
				_, searchErr := tr.Search(model.RangeQuery{
					Kind: model.TimeSlice, Rect: geom.RectFromCenter(o.PosAt(tr.clock), 5000, 5000), Now: tr.clock, T0: tr.clock,
				})
				_, knnErr := tr.SearchKNN(model.KNNQuery{Center: o.PosAt(tr.clock), K: 5, T: tr.clock})
				for op, err := range map[string]error{
					"Insert":          tr.Insert(model.Object{ID: 1 << 40, Pos: o.Pos, Vel: o.Vel, T: o.T}),
					"Delete":          tr.Delete(o),
					"Search":          searchErr,
					"SearchKNN":       knnErr,
					"CheckInvariants": tr.CheckInvariants(),
				} {
					if !errors.Is(err, storage.ErrCorruptPage) {
						t.Errorf("%s over a scribbled %s: err = %v, want one wrapping storage.ErrCorruptPage", op, where, err)
					}
				}
			})
		}
	}
}

// TestCheckInvariantsLongHistory: a parent entry and its child's bound are
// the same line evaluated from different reference times, equal only up to
// rounding; at PR 20 CheckInvariants compared them exactly and reported
// "child bound escapes parent" 6,500 steps into this history (the child's
// edge 1e-10 m outside).
func TestCheckInvariantsLongHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := newTestTree(t, 2000, Config{})
	var live []model.Object
	now := 0.0
	next := model.ObjectID(1)
	const load, steps = 5000, 7000
	for i := 0; i < load+steps; i++ {
		now += 0.001
		op := 0
		if i >= load {
			op = rng.Intn(3)
		}
		var err error
		switch op {
		case 0:
			o := uniformObj(rng, next, now)
			next++
			err = tr.Insert(o)
			live = append(live, o)
		case 1:
			j := rng.Intn(len(live))
			err = tr.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case 2:
			j := rng.Intn(len(live))
			o := uniformObj(rng, live[j].ID, now)
			err = tr.Update(live[j], o)
			live[j] = o
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i >= load && i%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	// The slack must not hide a real escape: push one child bound 1 mm out
	// (at the first time checkNode compares the two).
	if tr.height != 3 {
		t.Fatalf("height %d, want 3", tr.height)
	}
	root, err := tr.readNode(tr.root, 2)
	if err != nil {
		t.Fatal(err)
	}
	child, err := tr.readNode(root.entries[0].child, 1)
	if err != nil {
		t.Fatal(err)
	}
	outer, inner := root.entries[0].mr, &child.entries[0].mr
	r0 := math.Max(outer.Ref, inner.Ref)
	inner.MBR.MinX -= inner.AtTime(r0).MinX - outer.AtTime(r0).MinX + 1e-3
	if err := tr.writeNode(child); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a child bound 1 mm outside its parent")
	}
}

// TestPageBoundMatchesUnion: the bound folded from page bytes, the bound of
// the decoded node and the geom.MovingRect.Union fold they both replace
// agree bit for bit, on leaves and on internal nodes.
func TestPageBoundMatchesUnion(t *testing.T) {
	tr, _, _ := newHeight3Tree(t, 8000, 2000)
	now := tr.clock + 3.25
	if err := tr.walk(func(n *node) {
		var rects []geom.MovingRect
		for _, o := range n.objs {
			rects = append(rects, objRect(o))
		}
		for _, e := range n.entries {
			rects = append(rects, e.mr)
		}
		want := geom.UnionAll(rects, now)
		var raw geom.MovingRect
		if err := tr.view(n.id, n.level, func(data []byte, count int) { raw = pageBound(data, n.level, count, now) }); err != nil {
			t.Fatal(err)
		}
		if got := n.boundAt(now); got != want || raw != want {
			t.Fatalf("page %d level %d:\n decoded %v\n raw     %v\n Union   %v", n.id, n.level, got, raw, want)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPointOps measures the kernel without the Store: one Update of a
// resident object to a fresh uniform position per iteration (Delete+Insert,
// what a report is), with every page cached and with the pool a tenth of the
// tree. pages/op is pool accesses, hits and misses.
func BenchmarkPointOps(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages int
	}{{"cached", 2000}, {"cache=10%", 50}} {
		b.Run("update/"+bc.name, func(b *testing.B) {
			tr, pool, objs := newHeight3Tree(b, 20000, bc.pages)
			rng := rand.New(rand.NewSource(9))
			now := tr.clock
			b.ReportAllocs()
			b.ResetTimer()
			before := accesses(pool)
			for i := 0; i < b.N; i++ {
				now += 0.001
				j := rng.Intn(len(objs))
				o := uniformObj(rng, objs[j].ID, now)
				if err := tr.Update(objs[j], o); err != nil {
					b.Fatal(err)
				}
				objs[j] = o
			}
			b.ReportMetric(float64(accesses(pool)-before)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkKNN measures the kNN kernel without the Store: one
// SearchKNN(K=10) per iteration, at a uniform centre 60 ts ahead, on a
// detached tree of 100,000 uniform objects (1,599 pages, height 3) with every
// page cached and with the pool a tenth of the tree. pages/op is pool
// accesses, hits and misses. Each tree is built once, whatever b.N.
func BenchmarkKNN(b *testing.B) {
	trees := map[int]*Tree{}
	for _, bc := range []struct {
		name  string
		pages int
	}{{"cached", 4096}, {"cache=10%", 160}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := trees[bc.pages]
			if tr == nil {
				tr, _, _ = newHeight3Tree(b, 100000, bc.pages)
				trees[bc.pages] = tr
			}
			rng := rand.New(rand.NewSource(12))
			now := tr.clock
			b.ReportAllocs()
			b.ResetTimer()
			before := accesses(tr.pool)
			for i := 0; i < b.N; i++ {
				q := model.KNNQuery{Center: geom.V(rng.Float64()*100000, rng.Float64()*100000), K: 10, Now: now, T: now + 60}
				if _, err := tr.SearchKNN(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(accesses(tr.pool)-before)/float64(b.N), "pages/op")
		})
	}
}
