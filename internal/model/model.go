// Package model defines the moving-object data model shared by every index
// in this repository: linear-motion object records, the three predictive
// range query types of the VP paper (Section 2.1), the common Index
// interface implemented by the TPR*-tree, the Bx-tree and the VP-partitioned
// manager, and an exact brute-force oracle used both for the refinement
// (filter) step of query processing and for correctness testing.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ObjectID identifies a moving object. IDs are assigned by the application;
// indexes treat them as opaque.
type ObjectID uint64

// Object is a linear-motion moving point (Section 2.1): at time t >= T its
// position is Pos + Vel*(t - T). An update replaces the whole record.
type Object struct {
	ID  ObjectID
	Pos geom.Vec2 // reference position at time T
	Vel geom.Vec2 // velocity (m/ts)
	T   float64   // reference timestamp of Pos
}

// PosAt returns the extrapolated position at time t.
func (o Object) PosAt(t float64) geom.Vec2 {
	return o.Pos.Add(o.Vel.Scale(t - o.T))
}

// Transform returns the object expressed in the rotated coordinate frame m
// (both position and velocity rotate; reference time is unchanged). Used by
// the VP index manager when inserting into a DVA index.
func (o Object) Transform(m geom.Mat2) Object {
	return Object{ID: o.ID, Pos: m.Apply(o.Pos), Vel: m.Apply(o.Vel), T: o.T}
}

// String implements fmt.Stringer.
func (o Object) String() string {
	return fmt.Sprintf("obj %d pos%v vel%v @%g", o.ID, o.Pos, o.Vel, o.T)
}

// QueryKind distinguishes the three range query types of Section 2.1.
type QueryKind int

const (
	// TimeSlice reports objects inside the region at one timestamp (T0).
	TimeSlice QueryKind = iota
	// TimeInterval reports objects inside the (static) region at any time
	// in [T0, T1].
	TimeInterval
	// MovingRange reports objects that intersect the region as it
	// translates with velocity Vel during [T0, T1].
	MovingRange
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case TimeSlice:
		return "time-slice"
	case TimeInterval:
		return "time-interval"
	case MovingRange:
		return "moving-range"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// RangeQuery is a predictive range query. The region is either a rectangle
// (Circle.R == 0 and Rect non-empty) or a circle (Circle.R > 0); circular
// queries are the paper's default since they resemble "objects within d of
// me" requests and the kNN filter step.
//
// Now is the time the query is issued (all indexes contain objects whose
// reference times are <= Now); T0 >= Now is the (future) query time, and T1
// >= T0 closes the interval for interval/moving queries. For TimeSlice
// queries T1 is ignored and treated as T0.
type RangeQuery struct {
	Kind   QueryKind
	Rect   geom.Rect   // rectangular region (region at time T0 for MovingRange)
	Circle geom.Circle // circular region if Circle.R > 0
	Vel    geom.Vec2   // region velocity (MovingRange only)
	Now    float64
	T0, T1 float64
}

// IsCircle reports whether the query region is circular.
func (q RangeQuery) IsCircle() bool { return q.Circle.R > 0 }

// EndTime returns the effective end of the query time range.
func (q RangeQuery) EndTime() float64 {
	if q.Kind == TimeSlice {
		return q.T0
	}
	return math.Max(q.T0, q.T1)
}

// Region returns the axis-aligned bounding rectangle of the query region at
// its initial time T0.
func (q RangeQuery) Region() geom.Rect {
	if q.IsCircle() {
		return q.Circle.Bound()
	}
	return q.Rect
}

// AsMovingRect returns the query region as a moving rectangle over
// [T0, EndTime]: static for slice/interval queries, translating with Vel
// for moving queries. Circular regions are bounded by their MBR (exact
// refinement happens in Matches).
func (q RangeQuery) AsMovingRect() geom.MovingRect {
	r := q.Region()
	v := geom.Vec2{}
	if q.Kind == MovingRange {
		v = q.Vel
	}
	vbr := geom.Rect{MinX: v.X, MinY: v.Y, MaxX: v.X, MaxY: v.Y}
	return geom.MovingRect{MBR: r, VBR: vbr, Ref: q.T0}
}

// Transform returns the query expressed in the rotated frame m: the
// rectangular region becomes the axis-aligned bound of its rotated corners
// (Algorithm 3 line 4); circle centers rotate with the radius preserved
// (rotations are isometries); velocities rotate. The transformed query is a
// *superset* test — exact containment is re-checked by Matches in the
// original frame.
func (q RangeQuery) Transform(m geom.Mat2) RangeQuery {
	out := q
	if q.IsCircle() {
		out.Circle = geom.Circle{C: m.Apply(q.Circle.C), R: q.Circle.R}
		out.Rect = out.Circle.Bound()
	} else {
		out.Rect = q.Rect.BoundOfTransformed(m)
	}
	out.Vel = m.Apply(q.Vel)
	return out
}

// finite reports whether every value is a number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Validate reports a descriptive error, wrapping ErrInvalidQuery, for
// malformed queries. The engine's outside boundary (the Store) calls it once
// per query; the indexes behind it take a validated query on trust.
func (q RangeQuery) Validate() error {
	switch {
	case !finite(q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.Circle.C.X, q.Circle.C.Y, q.Circle.R,
		q.Vel.X, q.Vel.Y, q.Now, q.T0, q.T1):
		return fmt.Errorf("%w: non-finite field in %+v", ErrInvalidQuery, q)
	case q.Circle.R < 0:
		return fmt.Errorf("%w: negative query radius %g", ErrInvalidQuery, q.Circle.R)
	case !q.IsCircle() && q.Rect.IsEmpty():
		return fmt.Errorf("%w: empty query rectangle", ErrInvalidQuery)
	case q.T0 < q.Now:
		return fmt.Errorf("%w: query time T0=%g precedes issue time Now=%g", ErrInvalidQuery, q.T0, q.Now)
	case q.Kind != TimeSlice && q.T1 < q.T0:
		return fmt.Errorf("%w: query interval [%g,%g] is inverted", ErrInvalidQuery, q.T0, q.T1)
	}
	return nil
}

// Matcher is the exact predicate of one query — does an object satisfy it? —
// with what does not depend on the object worked out once: it is the
// refinement step after every index probe (Algorithm 3 line 8), run per
// candidate on a pinned leaf, and the test oracle. The math is closed-form:
// linear motion against a static or linearly translating rectangle reduces to
// interval intersection per axis; against a circle it reduces to a quadratic
// in t.
type Matcher struct {
	t0, t1 float64     // the query's time range; equal for a time slice
	circle geom.Circle // the region when circle.R > 0, else rect is
	vel    geom.Vec2   // region velocity (zero unless MovingRange)
	shape  matchShape
	r2     float64 // circle.R², the slice test's constant
	// rect is the static query rectangle as IntersectsDuring rebases it to
	// t0 (MinX + 0·(t0−t0), ..., min/max swapped), and dt0 the t0−t0 that
	// rebases the object's relative motion: 0, or NaN at an infinite t0.
	rect geom.MovingRect
	dt0  float64
}

// matchShape picks one of the three tests, decided once per query by the
// comparisons the per-object test used to make: R > 0, then t1 == t0.
type matchShape uint8

const (
	rectShape   matchShape = iota // a static or moving rectangle
	sliceCircle                   // a circle at one instant
	sweptCircle                   // a circle over an interval, static or moving
)

// NewMatcher prepares q's predicate.
func NewMatcher(q RangeQuery) (m Matcher) {
	m.init(&q)
	return m
}

func (m *Matcher) init(q *RangeQuery) {
	m.t0, m.t1, m.circle = q.T0, q.EndTime(), q.Circle
	if q.Kind == MovingRange {
		m.vel = q.Vel
	}
	switch {
	case m.circle.R > 0 && m.t1 == m.t0:
		m.shape, m.r2 = sliceCircle, m.circle.R*m.circle.R
	case m.circle.R > 0:
		m.shape = sweptCircle
	default:
		m.shape = rectShape
		m.rect = geom.MovingRect{MBR: q.Rect, VBR: geom.Rect{}, Ref: m.t0}.Rebase(m.t0)
		m.dt0 = m.t0 - m.t0
	}
}

// Matches reports whether o satisfies the query.
func (m *Matcher) Matches(o Object) bool { return m.MatchesMotion(o.Pos, o.Vel, o.T) }

// MatchesMotion is Matches of the object at pos at time t moving at vel, for a
// caller that holds the record as scalars — a page slot — and wants no Object
// built: the same operations in the same order, so the verdict is Matches'
// for every float input, NaN and ±0 included.
func (m *Matcher) MatchesMotion(pos, vel geom.Vec2, t float64) bool {
	if hit, ok := m.SliceCircleHit(pos, vel, t); ok {
		return hit
	}
	return m.matchesSwept(pos, vel, t)
}

// SliceCircleHit is MatchesMotion's first half, small enough to be inlined
// into a leaf loop, where a call per record costs about a tenth of a
// time-slice search: for a circle at one instant — the kNN inner loop and the
// commonest range query — it returns the verdict and true, by circleHit's
// quadratic at s = 0, where it is its constant term |PosAt(t0) − C|² − R²;
// for every other shape it returns false, false, and the caller calls
// MatchesMotion.
func (m *Matcher) SliceCircleHit(pos, vel geom.Vec2, t float64) (hit, ok bool) {
	if m.shape != sliceCircle {
		return false, false
	}
	dt := m.t0 - t
	dx := pos.X + vel.X*dt - m.circle.C.X
	dy := pos.Y + vel.Y*dt - m.circle.C.Y
	return dx*dx+dy*dy-m.r2 <= 0, true
}

// matchesSwept is MatchesMotion for an interval circle or a rectangle. The
// rectangle test is MovingPointRect(PosAt(t0), vel − region vel, t0)
// .IntersectsDuring(the static rectangle, t0, t1): the point's Rebase(t0) is
// x + v·(t0−t0) per axis — its min and max are one expression, so AtTime's
// swap never fires — and the rectangle's was done by init.
func (m *Matcher) matchesSwept(pos, vel geom.Vec2, t float64) bool {
	if m.shape == sweptCircle {
		return circleHit(pos, vel, t, m.circle, m.vel, m.t0, m.t1)
	}
	dt := m.t0 - t
	px, py := pos.X+vel.X*dt, pos.Y+vel.Y*dt
	vx, vy := vel.X-m.vel.X, vel.Y-m.vel.Y
	x, y := px+vx*m.dt0, py+vy*m.dt0
	rel := geom.MovingRect{
		MBR: geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y},
		VBR: geom.Rect{MinX: vx, MinY: vy, MaxX: vx, MaxY: vy},
	}
	return geom.IntersectsRebased(&rel, &m.rect, m.t0, m.t1)
}

// Matches is NewMatcher(q).Matches(o) for callers with one object to test.
func Matches(o Object, q RangeQuery) bool {
	var m Matcher
	m.init(&q)
	return m.MatchesMotion(o.Pos, o.Vel, o.T)
}

// circleHit solves |p(τ) - c(τ)| <= r for τ in [t0, t1] where both p, at pos
// at time t moving at vel, and c move linearly.
func circleHit(pos, vel geom.Vec2, t float64, c geom.Circle, cVel geom.Vec2, t0, t1 float64) bool {
	// d(τ) = d0 + dv*(τ - t0)
	d0 := pos.Add(vel.Scale(t0 - t)).Sub(c.C)
	dv := vel.Sub(cVel)
	// |d0 + dv*s|^2 <= r^2 for some s in [0, t1-t0]: a quadratic in s whose
	// minimum over the closed interval decides the predicate.
	a := dv.NormSq()
	b := 2 * d0.Dot(dv)
	cc := d0.NormSq() - c.R*c.R
	S := t1 - t0
	if a == 0 {
		// No relative motion (then b = 2*d0.(0) = 0 as well): constant gap.
		return cc <= 0
	}
	sMin := -b / (2 * a)
	if sMin < 0 {
		sMin = 0
	} else if sMin > S {
		sMin = S
	}
	return a*sMin*sMin+b*sMin+cc <= 0
}

// IOStats aggregates simulated disk activity; indexes report deltas of
// these counters around each operation. Reads are buffer-pool misses (the
// paper's "I/O" metric), Hits are buffer-pool hits, Writes are dirty page
// write-backs.
type IOStats struct {
	Reads  int64
	Writes int64
	Hits   int64
}

// Sub returns the component-wise difference.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{s.Reads - o.Reads, s.Writes - o.Writes, s.Hits - o.Hits}
}

// Index is the operation set common to all moving-object indexes here: the
// TPR*-tree, the Bx-tree, and the VP-partitioned wrapper around either.
//
// Search (and KNNIndex.SearchKNN) take a query that has passed Validate:
// the caller at the engine's boundary validates once, the indexes do not
// re-check.
//
// Insert adds a (new) object record. Delete removes the record previously
// inserted for the object — the full record is required because both base
// indexes locate entries by position/velocity/time, not by ID alone (the VP
// manager's id->record table lets it consult only the ID). Update is
// delete-then-insert, as in the paper.
type Index interface {
	Insert(o Object) error
	Delete(o Object) error
	Update(old, new Object) error
	Search(q RangeQuery) ([]ObjectID, error)
	Len() int
	IO() IOStats
	Name() string
}

// Sentinel errors shared by every index implementation in this repository.
// Implementations wrap them with context (fmt.Errorf("...: %w", Err...)), so
// callers must test with errors.Is, not equality.
var (
	// ErrNotFound is returned by Delete/Update/Remove when the record is
	// absent.
	ErrNotFound = errors.New("model: object not found")
	// ErrDuplicate is returned by Insert when a record with the same ID is
	// already indexed.
	ErrDuplicate = errors.New("model: duplicate object")
	// ErrUnsupported is returned when an index does not implement the
	// requested operation (e.g. kNN on a base structure without it).
	ErrUnsupported = errors.New("model: operation not supported by this index")
	// ErrInvalidQuery is returned by the query validators: a non-finite
	// field, an empty or negative region, a time before the issue time, an
	// inverted interval, k <= 0.
	ErrInvalidQuery = errors.New("model: invalid query")
)

// BruteForce is a trivially correct Index used as the oracle in tests and
// as the reference "linear scan" baseline. It is not paged and reports zero
// I/O.
type BruteForce struct {
	objs map[ObjectID]Object
}

// NewBruteForce returns an empty oracle index.
func NewBruteForce() *BruteForce { return &BruteForce{objs: make(map[ObjectID]Object)} }

// Insert implements Index.
func (b *BruteForce) Insert(o Object) error {
	if _, dup := b.objs[o.ID]; dup {
		return fmt.Errorf("model: insert of object %d: %w", o.ID, ErrDuplicate)
	}
	b.objs[o.ID] = o
	return nil
}

// Delete implements Index.
func (b *BruteForce) Delete(o Object) error {
	if _, ok := b.objs[o.ID]; !ok {
		return ErrNotFound
	}
	delete(b.objs, o.ID)
	return nil
}

// Update implements Index.
func (b *BruteForce) Update(old, new Object) error {
	if err := b.Delete(old); err != nil {
		return err
	}
	return b.Insert(new)
}

// Search implements Index.
func (b *BruteForce) Search(q RangeQuery) ([]ObjectID, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var out []ObjectID
	m := NewMatcher(q)
	for _, o := range b.objs {
		if m.Matches(o) {
			out = append(out, o.ID)
		}
	}
	return out, nil
}

// Len implements Index.
func (b *BruteForce) Len() int { return len(b.objs) }

// IO implements Index.
func (b *BruteForce) IO() IOStats { return IOStats{} }

// Name implements Index.
func (b *BruteForce) Name() string { return "scan" }

// Get returns the stored record for id.
func (b *BruteForce) Get(id ObjectID) (Object, bool) {
	o, ok := b.objs[id]
	return o, ok
}
