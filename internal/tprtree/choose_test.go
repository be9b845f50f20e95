package tprtree

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// The reference: ChooseSubtree as it was before it read the raw slots in
// closed form — an entry-reading closure, two Rebases, and two general sweep
// integrals per entry, over math.Min/Max folds. refSweepVolume is the
// piecewise integral SweepVolume used for every rectangle.

func refSweepVolume(m geom.MovingRect, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	a := m.Rebase(t0)
	w0 := a.MBR.Width()
	h0 := a.MBR.Height()
	dw := a.VBR.MaxX - a.VBR.MinX
	dh := a.VBR.MaxY - a.VBR.MinY
	T := t1 - t0
	breaks := []float64{0, T}
	addRoot := func(v0, dv float64) {
		if dv != 0 {
			r := -v0 / dv
			if r > 0 && r < T {
				breaks = append(breaks, r)
			}
		}
	}
	addRoot(w0, dw)
	addRoot(h0, dh)
	for i := 1; i < len(breaks); i++ {
		for j := i; j > 0 && breaks[j] < breaks[j-1]; j-- {
			breaks[j], breaks[j-1] = breaks[j-1], breaks[j]
		}
	}
	total := 0.0
	for i := 0; i+1 < len(breaks); i++ {
		s0, s1 := breaks[i], breaks[i+1]
		if s1 <= s0 {
			continue
		}
		mid := (s0 + s1) / 2
		if w0+dw*mid <= 0 || h0+dh*mid <= 0 {
			continue
		}
		ii := func(s float64) float64 {
			return w0*h0*s + (w0*dh+h0*dw)*s*s/2 + dw*dh*s*s*s/3
		}
		total += ii(s1) - ii(s0)
	}
	return total
}

func refSweepCost(cfg Config, mr geom.MovingRect, now float64) float64 {
	h := queryExtent / 2
	inflated := geom.MovingRect{
		MBR: mr.MBR.ExpandXY(h, h),
		VBR: mr.VBR,
		Ref: mr.Ref,
	}
	return refSweepVolume(inflated, now, now+cfg.Horizon)
}

func refUnionRebased(a, b geom.MovingRect) geom.MovingRect {
	mbr := a.MBR
	if a.MBR.IsEmpty() {
		mbr = b.MBR
	} else if !b.MBR.IsEmpty() {
		mbr = geom.Rect{
			MinX: math.Min(a.MBR.MinX, b.MBR.MinX), MinY: math.Min(a.MBR.MinY, b.MBR.MinY),
			MaxX: math.Max(a.MBR.MaxX, b.MBR.MaxX), MaxY: math.Max(a.MBR.MaxY, b.MBR.MaxY),
		}
	}
	return geom.MovingRect{
		MBR: mbr,
		VBR: geom.Rect{
			MinX: math.Min(a.VBR.MinX, b.VBR.MinX),
			MinY: math.Min(a.VBR.MinY, b.VBR.MinY),
			MaxX: math.Max(a.VBR.MaxX, b.VBR.MaxX),
			MaxY: math.Max(a.VBR.MaxY, b.VBR.MaxY),
		},
		Ref: a.Ref,
	}
}

func refChooseSubtree(cfg Config, count int, entryAt func(i int) geom.MovingRect, mrNow geom.MovingRect, now float64) int {
	best := 0
	bestEnl := math.Inf(1)
	bestVol := math.Inf(1)
	for i := 0; i < count; i++ {
		eNow := entryAt(i).Rebase(now)
		vol := refSweepCost(cfg, eNow, now)
		enl := refSweepCost(cfg, refUnionRebased(eNow, mrNow), now) - vol
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// TestChooseSubtreeEquivalence: the raw-slot chooser picks the entry the
// reference picks at every internal level of every insert descent, over
// three seeded 60,000-operation histories (load, then updates, inserts and
// deletes) that pass through heights 2 and 3 — for the inserted point, and
// at the root for a subtree bound that one of the root's own entries
// contains, where the chooser's zero-growth shortcut decides.
func TestChooseSubtreeEquivalence(t *testing.T) {
	const load, ops = 15000, 60000
	choices, covering := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree(t, 2000, Config{})
		heights := map[int]bool{}
		compare := func(data []byte, n int, add geom.MovingRect, now float64) int {
			got := tr.chooseSubtree(data, n, add, now)
			want := refChooseSubtree(tr.cfg, n, func(i int) geom.MovingRect { return getMR(entrySlot(data, i)) }, add, now)
			if got != want {
				t.Fatalf("seed %d, height %d: chose entry %d of %d, reference %d (adding %v at %g)", seed, tr.height, got, n, want, add, now)
			}
			choices++
			for i := 0; i < n; i++ {
				e := getMR(entrySlot(data, i)).Rebase(now)
				if u := refUnionRebased(e, add); sameBits(u.MBR, e.MBR) && sameBits(u.VBR, e.VBR) {
					covering++
				}
			}
			return got
		}
		// descend replays Insert's choices for o, then probes the root with
		// a bound taken from inside it.
		descend := func(o model.Object) {
			now := max(tr.clock, o.T)
			heights[tr.height] = true
			id := tr.root
			for level := tr.height - 1; level > 0; level-- {
				if err := tr.view(id, level, func(data []byte, n int) {
					if level == tr.height-1 {
						inner := getMR(entrySlot(data, rng.Intn(n))).Rebase(now)
						inner.MBR = geom.RectFromCenter(inner.MBR.Center(), inner.MBR.Width()/4, inner.MBR.Height()/4)
						compare(data, n, inner, now)
					}
					id = getChild(entrySlot(data, compare(data, n, objRect(o).Rebase(now), now)))
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		newObj := func(id model.ObjectID, now float64) model.Object {
			if seed == 2 { // road-like velocity skew
				return randomWorkload(1, rng, now)[0]
			}
			return uniformObj(rng, id, now)
		}
		var live []model.Object
		next := model.ObjectID(1)
		now := 0.0
		for i := 0; i < ops; i++ {
			now += 0.002
			op := 0 // insert
			if i >= load {
				op = rng.Intn(4) // insert, delete, update, update
			}
			var err error
			switch {
			case op == 0 || len(live) == 0:
				o := newObj(next, now)
				o.ID = next
				next++
				descend(o)
				err = tr.Insert(o)
				live = append(live, o)
			case op == 1:
				j := rng.Intn(len(live))
				err = tr.Delete(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				j := rng.Intn(len(live))
				o := newObj(live[j].ID, now)
				o.ID = live[j].ID
				if err = tr.Delete(live[j]); err == nil {
					descend(o)
					err = tr.Insert(o)
				}
				live[j] = o
			}
			if err != nil {
				t.Fatalf("seed %d, op %d: %v", seed, i, err)
			}
		}
		if !heights[2] || !heights[3] {
			t.Fatalf("seed %d: heights seen %v, want 2 and 3", seed, heights)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if covering == 0 {
		t.Fatal("no entry ever covered the added bound: the zero-growth shortcut went untested")
	}
	t.Logf("%d subtree choices identical to the reference (%d entries already covering the added bound)", choices, covering)
}

// TestSweepKernelMatchesSweepVolume: sweepCost's closed form and its
// fallback give the float bits of the general integral of the inflated
// rectangle, on random conservative bounds and on every edge the fast path
// must hand over or survive.
func TestSweepKernelMatchesSweepVolume(t *testing.T) {
	const H = 120.0
	odd := 0.1 // a now at which the horizon does not survive rounding
	for ; (odd+H)-odd == H; odd += 0.1 {
	}
	rng := rand.New(rand.NewSource(4))
	type probe struct {
		name string
		mr   geom.MovingRect // rebased to now below
		now  float64
	}
	box := func(x0, y0, x1, y1, vx0, vy0, vx1, vy1 float64) geom.MovingRect {
		return geom.MovingRect{MBR: geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}, VBR: geom.Rect{MinX: vx0, MinY: vy0, MaxX: vx1, MaxY: vy1}}
	}
	probes := []probe{
		{"zero velocity extent", box(100, 200, 300, 400, 7, -3, 7, -3), 10},
		{"clamp root inside the horizon", box(0, 0, 10, 10, 20, 1, -20, 2), 10},
		{"huge coordinates absorb the extent", box(1e300, 1e300, 1e300, 1e300, -1, -1, 1, 1), 10},
		{"huge widths overflow", box(-1e300, -1e300, 1e300, 1e300, -1, -1, 1, 1), 10},
		{"huge speeds overflow", box(0, 0, 1, 1, -1e300, -1e300, 1e300, 1e300), 10},
		{"odd now", box(100, 200, 300, 400, -50, -40, 60, 70), odd},
	}
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*100000, rng.Float64()*100000
		vx, vy := rng.Float64()*200-100, rng.Float64()*200-100
		probes = append(probes, probe{"random", box(x, y, x+rng.Float64()*3000, y+rng.Float64()*3000,
			vx, vy, vx+rng.Float64()*(100-vx), vy+rng.Float64()*(100-vy)), rng.Float64() * 1000})
	}
	tr := newTestTree(t, 4, Config{})
	for _, p := range probes {
		stored := p.mr
		stored.Ref = p.now - 3 // a stored bound, referenced before now
		// The chooser's and the split's rectangles are rebased to now; a
		// stale one must take the general path.
		for _, mr := range []geom.MovingRect{stored.Rebase(p.now), stored} {
			got := tr.sweepCost(mr, p.now)
			want := refSweepCost(tr.cfg, mr, p.now)
			h := queryExtent / 2
			viaGeom := geom.MovingRect{MBR: mr.MBR.ExpandXY(h, h), VBR: mr.VBR, Ref: mr.Ref}.SweepVolume(p.now, p.now+tr.cfg.Horizon)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(viaGeom) != math.Float64bits(want) {
				t.Fatalf("%s: sweepCost(%v, %g) = %g (%#x), SweepVolume %g (%#x), reference %g (%#x)", p.name, mr, p.now,
					got, math.Float64bits(got), viaGeom, math.Float64bits(viaGeom), want, math.Float64bits(want))
			}
		}
	}
}

// TestOverflowingInsertAllocs pins what an insert that meets a full leaf
// allocates — the decoded nodes, the reinsert queue, the split's two groups
// — over the first 40 overflowing inserts of a seeded history. A split's
// scratch (rectangles, sort keys, permutations, prefix and suffix bounds)
// and a forced reinsert's sort keys are stack arrays: 15.9 allocations per
// overflowing insert, 39.4 when each split allocated per sort key.
func TestOverflowingInsertAllocs(t *testing.T) {
	const overflows, ceiling = 40, 16.0
	tr, _, objs := newHeight3Tree(t, 8000, 2000)
	rng := rand.New(rand.NewSource(11))
	var ms runtime.MemStats
	seen, total, splits := 0, uint64(0), 0
	for id := model.ObjectID(len(objs) + 1); seen < overflows; id++ {
		o := uniformObj(rng, id, tr.clock+0.001)
		_, count := insertLeaf(t, tr, o)
		_, leaves, err := tr.NodeCount()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if count < LeafCap {
			continue
		}
		seen++
		total += ms.Mallocs - before
		if _, after, _ := tr.NodeCount(); after > leaves {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no overflowing insert split a leaf")
	}
	if per := float64(total) / overflows; per > ceiling {
		t.Fatalf("%.2f allocations per overflowing insert (%d splitting), want <= %g", per, splits, ceiling)
	}
}
