package monitor

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/model"
)

// This file implements the coarse spatial subscription filter: a uniform
// grid per velocity class that maps a location report to the (usually few)
// subscriptions it could possibly affect, so incremental evaluation costs
// O(relevant subscriptions) instead of O(all subscriptions).
//
// The core idea is the standing-query dual of a range query's velocity
// expansion. A subscription watches its region at t+Horizon (through
// t+Horizon+Window); an object reported with velocity v can only reach that
// region if it starts within Δ·v of it, Δ = Horizon+Window. Indexing each
// subscription under its region expanded by Δ times a bound on object
// velocity makes a single point probe at the report's current position a
// conservative candidate test.
//
// Velocity partitioning is what makes the expansion tight. A global bound
// must expand every region by Δ·vmax in every direction — quadratic growth
// in the maximum speed, the exact pathology Section 4 of the VP paper
// ascribes to unpartitioned indexes. With the DVA analysis in hand, the
// filter keeps one grid per velocity class (one per DVA, plus an isotropic
// catch-all for outliers): a class with axis a and perpendicular bound τ
// expands regions by Δ·smax along a but only Δ·τ across it — near-linear
// growth, because τ is small for a good DVA. A report is routed to the one
// class covering its velocity (the same nearest-axis / τ rule the partition
// manager uses) and probes only that class's grid.
//
// The along-axis speed bounds (and the catch-all's radius) are discovered
// online: they start at zero and grow, with headroom, the first time a
// routed velocity exceeds them, rebuilding that class's grid. A probe that
// observes a not-yet-covered velocity reports ok=false and the caller falls
// back to testing every subscription for that one report — soundness never
// depends on the bounds being up to date.
//
// The class bound is what the grid has to assume; the report itself knows
// better. A cell lists every subscription some velocity of the class could
// reach, so the probe then tests each one against the report's own path:
// the segment the object covers over the subscription's evaluation window,
// against the region's swept box. Only what that test cannot rule out goes
// on to the exact predicate. The per-subscription data the test reads sits
// in one dense slot table, and the cells hold int32 slot numbers into it.

// VelocityClass bounds one velocity population for the filter: speeds along
// Axis (discovered online) and at most Perp across it. A zero Axis declares
// the class isotropic: a disc of online-discovered radius, used for
// outliers and for unpartitioned stores.
type VelocityClass struct {
	// Axis is the class's dominant velocity axis (unit length; zero for an
	// isotropic class).
	Axis geom.Vec2
	// Perp bounds the velocity component perpendicular to Axis — the
	// partition's τ. Ignored for isotropic classes.
	Perp float64
}

// filterSlack is the relative slack of every geometric test the filter
// makes. The exact predicate works in float64 too, and its rounding can
// accept an object a few ulps of the magnitudes involved outside the region
// (√ε of them for a moving circle's quadratic); 1e-6 of those magnitudes is
// far above that and far below anything that changes what a report tests.
const filterSlack = 1e-6

// filterSlot is one subscription's row in the filter's slot table: all a
// probe reads to test the subscription against a report's own path, in one
// 64-byte record.
type filterSlot struct {
	id SubscriptionID
	// box is the region's swept bound over the evaluation window — circles
	// by their MBR, moving regions by the union of their start and end
	// rectangles; the exact predicate refines later — grown by filterSlack
	// of its largest coordinate. It is the whole plane when it does not fit
	// in float64, which keeps the slot on every probe.
	box geom.Rect
	// horizon and window are the subscription's. A probe derives the
	// evaluation instants from them with QueryAt's own arithmetic.
	horizon, window float64
	// vel is the region's speed (|x|+|y|; 0 unless a moving range), which
	// scales the predicate's rounding in time.
	vel float64
}

// filterClass is one velocity class's grid.
type filterClass struct {
	axis      geom.Vec2
	isotropic bool
	perp      float64
	// along is the online speed bound: |v·axis| for DVA classes, |v| for
	// the isotropic class. Grown (with headroom) on the first violation.
	along float64
	// rects caches each slot's expanded region under this class's bounds,
	// so removal never recomputes geometry. Indexed by slot.
	rects []geom.Rect
	// cells is the n×n grid of slot lists, row-major.
	cells [][]int32
}

// DefaultFilterCells is the per-axis grid resolution used when NewFilter is
// given a non-positive cell count.
const DefaultFilterCells = 64

// Filter is the coarse spatial subscription filter. It does no locking;
// the caller serializes Add/Remove/SetClasses/Grow against Candidates.
type Filter struct {
	domain geom.Rect
	n      int
	cw, ch float64
	// classes holds the DVA classes first and the isotropic catch-all
	// last, mirroring the partition manager's layout. There is always at
	// least the catch-all.
	classes []*filterClass
	// slots is the dense slot table the grids index into; slotOf maps a
	// subscription to its slot and free lists the vacated ones for reuse.
	slots  []filterSlot
	slotOf map[SubscriptionID]int32
	free   []int32
	// maxVel is the largest region speed ever added since the last
	// SetClasses: the probe's tolerance for rounding in the clock.
	maxVel float64
}

// NewFilter builds a filter over the given data space with an n×n grid per
// velocity class (n <= 0 takes DefaultFilterCells). It starts with a single
// isotropic class — the right shape for an unpartitioned store; SetClasses
// installs the per-DVA classes once a velocity analysis exists.
func NewFilter(domain geom.Rect, n int) *Filter {
	if n <= 0 {
		n = DefaultFilterCells
	}
	if domain.IsEmpty() || domain.Area() == 0 {
		domain = geom.R(0, 0, 100000, 100000)
	}
	f := &Filter{
		domain: domain,
		n:      n,
		cw:     domain.Width() / float64(n),
		ch:     domain.Height() / float64(n),
		slotOf: make(map[SubscriptionID]int32),
	}
	f.classes = []*filterClass{f.newClass(VelocityClass{}, 0)}
	return f
}

// newClass builds an empty class grid with the given seed speed bound.
func (f *Filter) newClass(vc VelocityClass, along float64) *filterClass {
	return &filterClass{
		axis:      vc.Axis.Normalize(),
		isotropic: vc.Axis == (geom.Vec2{}),
		perp:      vc.Perp,
		along:     along,
		cells:     make([][]int32, f.n*f.n),
	}
}

// SetClasses rebuilds the filter around a fresh velocity analysis: one
// class per DVA (axis + τ) plus the trailing isotropic catch-all, with the
// slot table and every grid re-indexed from subs. The new classes' speed
// bounds are seeded from the largest bound discovered so far — a
// conservative (larger = safer) carry-over that avoids a rebuild storm right
// after a partition swap.
func (f *Filter) SetClasses(classes []VelocityClass, subs map[SubscriptionID]Subscription) {
	seed := 0.0
	for _, c := range f.classes {
		seed = math.Max(seed, c.along)
	}
	fresh := make([]*filterClass, 0, len(classes)+1)
	for _, vc := range classes {
		if vc.Axis == (geom.Vec2{}) {
			continue // isotropic classes collapse into the catch-all
		}
		fresh = append(fresh, f.newClass(vc, seed))
	}
	fresh = append(fresh, f.newClass(VelocityClass{}, seed))
	f.classes = fresh
	f.slots, f.free, f.maxVel = f.slots[:0], f.free[:0], 0
	clear(f.slotOf)
	for id, s := range subs {
		f.Add(id, s)
	}
}

// newSlot fills s's row of the slot table.
func newSlot(id SubscriptionID, s Subscription) filterSlot {
	b := s.Query.Region()
	vel := 0.0
	if s.Query.Kind == model.MovingRange {
		// A moving range with no window is static, but the predicate still
		// works in the region's frame, so its rounding scales with vel.
		vel = math.Abs(s.Query.Vel.X) + math.Abs(s.Query.Vel.Y)
		if s.Window > 0 {
			b = b.Union(b.Translate(s.Query.Vel.Scale(s.Window)))
		}
	}
	return filterSlot{id: id, box: padded(b, 0), horizon: s.Horizon, window: s.Window, vel: vel}
}

// padded returns r grown on every side by filterSlack of its largest
// coordinate magnitude plus scale, or the whole plane when r does not fit in
// float64 (an infinite or NaN bound, or one that overflows on the way).
func padded(r geom.Rect, scale float64) geom.Rect {
	d := filterSlack * (max(math.Abs(r.MinX), math.Abs(r.MinY), math.Abs(r.MaxX), math.Abs(r.MaxY)) + scale)
	out := geom.Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if !finite(out.MinX + out.MinY + out.MaxX + out.MaxY) {
		return geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	}
	return out
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return v-v == 0 }

// expandedRect returns slot s's box grown by everything an object of class
// c could contribute: expanded per world axis by Δ times the class's
// velocity AABB, Δ = Horizon+Window, then padded — by the region's own
// travel over Δ as well, since the predicate's rounding in time scales with
// it.
func (f *Filter) expandedRect(c *filterClass, s *filterSlot) geom.Rect {
	delta := s.horizon + s.window
	if c.isotropic {
		return padded(s.box.Expand(delta*c.along), s.vel*delta)
	}
	ax, ay := math.Abs(c.axis.X), math.Abs(c.axis.Y)
	return padded(s.box.ExpandXY(
		delta*(c.along*ax+c.perp*ay),
		delta*(c.along*ay+c.perp*ax),
	), s.vel*delta)
}

// cellRange returns the grid index range covered by r, clamped into the
// domain — geometry outside the domain lands on the border cells, which
// keeps out-of-domain subscriptions and reports conservatively matched.
func (f *Filter) cellRange(r geom.Rect) (ix0, iy0, ix1, iy1 int) {
	return f.ix(r.MinX), f.iy(r.MinY), f.ix(r.MaxX), f.iy(r.MaxY)
}

func (f *Filter) ix(x float64) int { return clampCell((x-f.domain.MinX)/f.cw, f.n) }
func (f *Filter) iy(y float64) int { return clampCell((y-f.domain.MinY)/f.ch, f.n) }

// clampCell maps a grid coordinate to a cell index in [0, n). It clamps in
// float64 before converting: a value past the int range does not convert to
// a usable int (on amd64 it becomes MinInt64), so converting first sent
// 1e19 to cell 0 instead of n-1. NaN goes to 0.
func clampCell(v float64, n int) int {
	if !(v >= 0) {
		return 0
	}
	if v >= float64(n-1) {
		return n - 1
	}
	return int(v)
}

// addToClass indexes one slot into one class grid.
func (f *Filter) addToClass(c *filterClass, si int32) {
	r := f.expandedRect(c, &f.slots[si])
	if int(si) >= len(c.rects) {
		c.rects = append(c.rects, make([]geom.Rect, int(si)+1-len(c.rects))...)
	}
	c.rects[si] = r
	ix0, iy0, ix1, iy1 := f.cellRange(r)
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			cell := iy*f.n + ix
			c.cells[cell] = append(c.cells[cell], si)
		}
	}
}

// Add gives a subscription a slot and indexes it into every class grid. An
// id already present is replaced.
func (f *Filter) Add(id SubscriptionID, s Subscription) {
	f.Remove(id)
	var si int32
	if k := len(f.free); k > 0 {
		si, f.free = f.free[k-1], f.free[:k-1]
		f.slots[si] = newSlot(id, s)
	} else {
		si = int32(len(f.slots))
		f.slots = append(f.slots, newSlot(id, s))
	}
	f.slotOf[id] = si
	f.maxVel = max(f.maxVel, f.slots[si].vel)
	for _, c := range f.classes {
		f.addToClass(c, si)
	}
}

// Remove strips a subscription out of every class grid and frees its slot.
func (f *Filter) Remove(id SubscriptionID) {
	si, ok := f.slotOf[id]
	if !ok {
		return
	}
	delete(f.slotOf, id)
	for _, c := range f.classes {
		ix0, iy0, ix1, iy1 := f.cellRange(c.rects[si])
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				cell := iy*f.n + ix
				list := c.cells[cell]
				for i, x := range list {
					if x == si {
						c.cells[cell] = append(list[:i], list[i+1:]...)
						break
					}
				}
			}
		}
	}
	f.slots[si] = filterSlot{}
	f.free = append(f.free, si)
}

// route picks the class covering v: the DVA class whose axis is nearest in
// perpendicular velocity distance, if that distance is within its τ;
// otherwise the trailing catch-all.
func (f *Filter) route(v geom.Vec2) (int, float64) {
	best, bestDist := -1, 0.0
	for i, c := range f.classes {
		if c.isotropic {
			continue
		}
		d := v.PerpDistToAxis(c.axis)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best >= 0 && bestDist <= f.classes[best].perp {
		return best, math.Abs(v.Dot(f.classes[best].axis))
	}
	return len(f.classes) - 1, v.Norm()
}

// Candidates returns the subscriptions the report could affect when
// evaluated at time now, in a fresh slice: AppendCandidates(nil, o, now).
func (f *Filter) Candidates(o model.Object, now float64) (cands []SubscriptionID, ok bool) {
	return f.AppendCandidates(nil, o, now)
}

// AppendCandidates appends to dst the subscriptions the report could affect
// when evaluated at time now. The grid cell of the object's position at now,
// in its velocity class, holds every subscription the class's speed bound
// lets it reach; of those it keeps the ones whose box the object's own path
// over [now+Horizon, now+Horizon+Window] — a segment, bounded by its two
// endpoints — comes within slack of. A slot is dropped only on a finite,
// clear miss: a non-finite position or tolerance keeps it. ok == false means
// the class's online speed bound does not cover the report's velocity yet,
// or the report has no finite place on the grid; the caller must treat every
// subscription as a candidate for this report and call Grow.
func (f *Filter) AppendCandidates(dst []SubscriptionID, o model.Object, now float64) (_ []SubscriptionID, ok bool) {
	ci, along := f.route(o.Vel)
	c := f.classes[ci]
	if along > c.along {
		return dst, false
	}
	// The exact predicate's rounding grows with the magnitudes it works
	// with: positions, and speeds times the instants they are taken at. The
	// part that scales with the clock cannot be padded into the grid when a
	// subscription is added, so the probe takes every cell within it of the
	// object — one cell, unless the object sits that close to a cell edge.
	pos := math.Abs(o.Pos.X) + math.Abs(o.Pos.Y)
	speed := math.Abs(o.Vel.X) + math.Abs(o.Vel.Y)
	clock := math.Abs(now) + math.Abs(o.T)
	p := o.PosAt(now)
	near := filterSlack * (pos + (speed+f.maxVel)*clock)
	if !finite(p.X + p.Y + near) {
		return dst, false
	}
	ix0, iy0, ix1, iy1 := f.cellRange(geom.Rect{MinX: p.X - near, MinY: p.Y - near, MaxX: p.X + near, MaxY: p.Y + near})
	start := len(dst)
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			for _, si := range c.cells[iy*f.n+ix] {
				s := &f.slots[si]
				t0 := now + s.horizon
				a, b := o.PosAt(t0), o.PosAt(t0+s.window)
				tol := filterSlack * (pos + (speed+s.vel)*(clock+s.horizon+s.window))
				gap := max(s.box.MinX-max(a.X, b.X), min(a.X, b.X)-s.box.MaxX,
					s.box.MinY-max(a.Y, b.Y), min(a.Y, b.Y)-s.box.MaxY)
				if gap > tol && finite(a.X+a.Y+b.X+b.Y+tol) {
					continue
				}
				dst = append(dst, s.id)
			}
		}
	}
	if ix1 > ix0 || iy1 > iy0 {
		// A subscription registered in two of the probed cells is listed
		// once.
		slices.Sort(dst[start:])
		dst = dst[:start+len(slices.Compact(dst[start:]))]
	}
	return dst, true
}

// Grow raises the routed class's online speed bound to cover v — with 50%
// headroom, so bound growth is logarithmic in the observed speed range —
// and rebuilds that class's grid from the slot table, which Add and Remove
// keep equal to the caller's registry (the registry argument is not read).
// A no-op when v is already covered.
func (f *Filter) Grow(v geom.Vec2, _ map[SubscriptionID]Subscription) {
	ci, along := f.route(v)
	c := f.classes[ci]
	if along <= c.along {
		return
	}
	c.along = along * 1.5
	c.cells = make([][]int32, f.n*f.n)
	for _, si := range f.slotOf {
		f.addToClass(c, si)
	}
}

// NumClasses returns the number of velocity classes (DVA classes plus the
// catch-all).
func (f *Filter) NumClasses() int { return len(f.classes) }
