package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestObjectPosAt(t *testing.T) {
	o := Object{ID: 1, Pos: geom.V(10, 20), Vel: geom.V(2, -1), T: 5}
	if got := o.PosAt(5); got != geom.V(10, 20) {
		t.Fatalf("PosAt(T) = %v", got)
	}
	if got := o.PosAt(8); got != geom.V(16, 17) {
		t.Fatalf("PosAt(8) = %v", got)
	}
	// Extrapolation backwards is legal for the record itself.
	if got := o.PosAt(3); got != geom.V(6, 22) {
		t.Fatalf("PosAt(3) = %v", got)
	}
}

func TestObjectTransformPreservesTrajectory(t *testing.T) {
	// Rotating a record and extrapolating commutes with extrapolating and
	// then rotating — the invariant the VP manager relies on.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		o := Object{
			ID:  ObjectID(i),
			Pos: geom.V(rng.Float64()*1e5, rng.Float64()*1e5),
			Vel: geom.V(rng.Float64()*200-100, rng.Float64()*200-100),
			T:   rng.Float64() * 100,
		}
		m := geom.RotationByAngle(rng.Float64() * 2 * math.Pi)
		tt := o.T + rng.Float64()*100
		a := m.Apply(o.PosAt(tt))
		b := o.Transform(m).PosAt(tt)
		if a.DistTo(b) > 1e-6*(1+a.Norm()) {
			t.Fatalf("transform does not commute: %v vs %v", a, b)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := RangeQuery{Kind: TimeSlice, Rect: geom.R(0, 0, 1, 1), Now: 0, T0: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []RangeQuery{
		{Kind: TimeSlice, Rect: geom.EmptyRect(), Now: 0, T0: 5},                      // empty region
		{Kind: TimeSlice, Rect: geom.R(0, 0, 1, 1), Now: 10, T0: 5},                   // past
		{Kind: TimeInterval, Rect: geom.R(0, 0, 1, 1), Now: 0, T0: 5, T1: 1},          // inverted
		{Kind: TimeSlice, Circle: geom.Circle{C: geom.V(0, 0), R: -1}, Now: 0, T0: 5}, // negative radius
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, q)
		}
	}
}

func TestQueryKindString(t *testing.T) {
	if TimeSlice.String() != "time-slice" || TimeInterval.String() != "time-interval" ||
		MovingRange.String() != "moving-range" {
		t.Fatal("kind strings")
	}
	if QueryKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestMatchesTimeSliceRect(t *testing.T) {
	o := Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(10, 0), T: 0}
	q := RangeQuery{Kind: TimeSlice, Rect: geom.R(95, -5, 105, 5), Now: 0, T0: 10}
	if !Matches(o, q) {
		t.Fatal("object at (100,0) at t=10 should match")
	}
	q.T0 = 5 // object at (50, 0)
	if Matches(o, q) {
		t.Fatal("object at (50,0) should not match")
	}
}

func TestMatchesIntervalRect(t *testing.T) {
	o := Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(10, 0), T: 0}
	// Object passes through x in [95,105] during t in [9.5, 10.5].
	q := RangeQuery{Kind: TimeInterval, Rect: geom.R(95, -5, 105, 5), Now: 0, T0: 2, T1: 9.4}
	if Matches(o, q) {
		t.Fatal("interval ends before arrival")
	}
	q.T1 = 9.6
	if !Matches(o, q) {
		t.Fatal("interval reaches arrival")
	}
}

func TestMatchesMovingRange(t *testing.T) {
	// Region chases the object at the same speed: never catches it.
	o := Object{ID: 1, Pos: geom.V(100, 0), Vel: geom.V(10, 0), T: 0}
	q := RangeQuery{Kind: MovingRange, Rect: geom.R(0, -5, 50, 5),
		Vel: geom.V(10, 0), Now: 0, T0: 0, T1: 100}
	if Matches(o, q) {
		t.Fatal("equal-velocity chase should never catch")
	}
	// Faster region catches at t = 50/10 = (100-50)/(20-10) = 5.
	q.Vel = geom.V(20, 0)
	q.T1 = 4.9
	if Matches(o, q) {
		t.Fatal("catch happens at t=5")
	}
	q.T1 = 5.1
	if !Matches(o, q) {
		t.Fatal("region should catch object at t=5")
	}
}

func TestMatchesCircleExactBoundary(t *testing.T) {
	o := Object{ID: 1, Pos: geom.V(0, 3), Vel: geom.V(1, 0), T: 0}
	// Circle of radius 3 at origin: the object grazes it at closest
	// approach x=0 (distance exactly 3).
	q := RangeQuery{Kind: TimeSlice, Circle: geom.Circle{C: geom.V(0, 0), R: 3}, Now: 0, T0: 0}
	if !Matches(o, q) {
		t.Fatal("boundary contact should match (closed region)")
	}
	q.Circle.R = 2.99
	if Matches(o, q) {
		t.Fatal("no contact at radius 2.99")
	}
}

func TestMatchesCircleStationaryRelative(t *testing.T) {
	// Object and (moving) circle share a velocity: constant gap.
	o := Object{ID: 1, Pos: geom.V(10, 0), Vel: geom.V(5, 5), T: 0}
	q := RangeQuery{Kind: MovingRange, Circle: geom.Circle{C: geom.V(0, 0), R: 9},
		Rect: geom.Circle{C: geom.V(0, 0), R: 9}.Bound(),
		Vel:  geom.V(5, 5), Now: 0, T0: 0, T1: 1000}
	if Matches(o, q) {
		t.Fatal("gap 10 > radius 9 forever")
	}
	q.Circle.R = 10
	if !Matches(o, q) {
		t.Fatal("gap 10 == radius 10")
	}
}

// TestMatchesAgainstSampling cross-checks the closed-form predicate with
// dense trajectory sampling over random scenarios.
func TestMatchesAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	disagree := 0
	for trial := 0; trial < 4000; trial++ {
		o := Object{
			ID:  1,
			Pos: geom.V(rng.Float64()*200-100, rng.Float64()*200-100),
			Vel: geom.V(rng.Float64()*20-10, rng.Float64()*20-10),
			T:   rng.Float64() * 10,
		}
		q := RangeQuery{Now: o.T, T0: o.T + rng.Float64()*10}
		q.T1 = q.T0 + rng.Float64()*10
		switch trial % 3 {
		case 0:
			q.Kind = TimeSlice
		case 1:
			q.Kind = TimeInterval
		default:
			q.Kind = MovingRange
			q.Vel = geom.V(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		if trial%2 == 0 {
			c := geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			q.Circle = geom.Circle{C: c, R: rng.Float64() * 40}
			q.Rect = q.Circle.Bound()
		} else {
			x, y := rng.Float64()*200-100, rng.Float64()*200-100
			q.Rect = geom.R(x, y, x+rng.Float64()*60, y+rng.Float64()*60)
		}

		got := Matches(o, q)
		want := sampleMatches(o, q, 2000)
		if got != want {
			// Sampling misses grazing contacts; exact true vs sampled false
			// is tolerable, the reverse is a bug.
			if !got && want {
				t.Fatalf("Matches=false but sampling hits: %+v %+v", o, q)
			}
			disagree++
		}
	}
	if disagree > 80 {
		t.Fatalf("too many grazing disagreements: %d", disagree)
	}
}

func sampleMatches(o Object, q RangeQuery, steps int) bool {
	t0, t1 := q.T0, q.EndTime()
	for i := 0; i <= steps; i++ {
		tt := t0
		if steps > 0 {
			tt = t0 + (t1-t0)*float64(i)/float64(steps)
		}
		p := o.PosAt(tt)
		var off geom.Vec2
		if q.Kind == MovingRange {
			off = q.Vel.Scale(tt - t0)
		}
		if q.IsCircle() {
			c := geom.Circle{C: q.Circle.C.Add(off), R: q.Circle.R}
			if c.ContainsPoint(p) {
				return true
			}
		} else {
			if q.Rect.Translate(off).ContainsPoint(p) {
				return true
			}
		}
	}
	return false
}

func TestBruteForceIndexSemantics(t *testing.T) {
	b := NewBruteForce()
	o := Object{ID: 1, Pos: geom.V(1, 1), Vel: geom.V(0, 0), T: 0}
	if err := b.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(o); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if b.Len() != 1 || b.Name() != "scan" {
		t.Fatal("len/name")
	}
	if got, ok := b.Get(1); !ok || got != o {
		t.Fatal("Get")
	}
	upd := o
	upd.Pos = geom.V(2, 2)
	upd.T = 1
	if err := b.Update(o, upd); err != nil {
		t.Fatal(err)
	}
	// Updating an object that was never inserted must fail.
	ghost := Object{ID: 99}
	if err := b.Update(ghost, ghost); err != ErrNotFound {
		t.Fatalf("ghost update: %v", err)
	}
	ids, err := b.Search(RangeQuery{Kind: TimeSlice, Rect: geom.R(0, 0, 5, 5), Now: 1, T0: 2})
	if err != nil || len(ids) != 1 {
		t.Fatalf("search: %v %v", ids, err)
	}
	if _, err := b.Search(RangeQuery{Kind: TimeSlice, Rect: geom.EmptyRect(), Now: 0, T0: 1}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if err := b.Delete(upd); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(upd); err != ErrNotFound {
		t.Fatal("double delete")
	}
	if b.IO() != (IOStats{}) {
		t.Fatal("oracle should report zero IO")
	}
}

func TestIOStatsArithmetic(t *testing.T) {
	a := IOStats{Reads: 5, Writes: 3, Hits: 10}
	b := IOStats{Reads: 1, Writes: 1, Hits: 1}
	if a.Sub(b) != (IOStats{4, 2, 9}) {
		t.Fatal("Sub")
	}
}

func TestQueryTransformRoundTrip(t *testing.T) {
	// A transformed query must be a superset test: any object matching the
	// original query must have its transformed record match the transformed
	// query's *rect* bound.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		m := geom.RotationByAngle(rng.Float64() * 2 * math.Pi)
		o := Object{
			ID:  1,
			Pos: geom.V(rng.Float64()*1000, rng.Float64()*1000),
			Vel: geom.V(rng.Float64()*40-20, rng.Float64()*40-20),
			T:   0,
		}
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := RangeQuery{
			Kind: TimeSlice,
			Rect: geom.R(x, y, x+200, y+200),
			Now:  0, T0: rng.Float64() * 20,
		}
		if !Matches(o, q) {
			continue
		}
		tq := q.Transform(m)
		to := o.Transform(m)
		if !tq.Rect.Expand(1e-6).ContainsPoint(to.PosAt(q.T0)) {
			t.Fatalf("transformed query bound misses transformed object")
		}
	}
}

func TestQueryTransformCirclePreservesRadius(t *testing.T) {
	q := RangeQuery{Kind: TimeSlice, Circle: geom.Circle{C: geom.V(3, 4), R: 7}, Now: 0, T0: 1}
	tq := q.Transform(geom.RotationByAngle(1.2))
	if tq.Circle.R != 7 {
		t.Fatalf("radius changed: %g", tq.Circle.R)
	}
	if math.Abs(tq.Circle.C.Norm()-q.Circle.C.Norm()) > 1e-9 {
		t.Fatal("rotation should preserve center norm")
	}
}

func TestSentinelErrorsAreIsable(t *testing.T) {
	b := NewBruteForce()
	o := Object{ID: 1, Pos: geom.V(1, 1), Vel: geom.V(1, 0), T: 0}
	if err := b.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(o); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := b.Delete(Object{ID: 9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
	if err := b.Update(Object{ID: 9}, Object{ID: 9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update absent: %v", err)
	}
	// Wrapped variants keep matching, bare equality would not.
	wrapped := fmt.Errorf("layer: %w", ErrUnsupported)
	if !errors.Is(wrapped, ErrUnsupported) {
		t.Fatal("wrapped ErrUnsupported not Is-able")
	}
	if wrapped == ErrUnsupported {
		t.Fatal("wrapped error compares equal (should require errors.Is)")
	}
	// The three sentinels are distinct.
	if errors.Is(ErrNotFound, ErrDuplicate) || errors.Is(ErrDuplicate, ErrUnsupported) {
		t.Fatal("sentinel errors alias each other")
	}
}

// TestMatcherTimeSliceIsCircleHit pins the one shortcut the Matcher takes: a
// circle at a single instant is decided by the constant term of circleHit's
// quadratic. Same answer as the general form, boundary cases included, for
// time-slice queries and for interval and moving queries of zero length.
func TestMatcherTimeSliceIsCircleHit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		o := Object{Pos: geom.V(rng.Float64()*1000, rng.Float64()*1000), Vel: geom.V(rng.Float64()*20-10, rng.Float64()*20-10), T: float64(rng.Intn(50))}
		q := RangeQuery{Kind: QueryKind(i % 3), Circle: geom.Circle{C: geom.V(rng.Float64()*1000, rng.Float64()*1000), R: 1 + rng.Float64()*400},
			Vel: geom.V(rng.Float64()*10-5, rng.Float64()*10-5), Now: 50, T0: 50 + float64(rng.Intn(60))}
		q.T1 = q.T0
		if i%7 == 0 { // exactly on the boundary, up to the rounding of Pos + R
			o.Vel, o.Pos = geom.Vec2{}, q.Circle.C.Add(geom.V(q.Circle.R, 0))
		}
		vel := geom.Vec2{}
		if q.Kind == MovingRange {
			vel = q.Vel
		}
		m := NewMatcher(q)
		if got, want := m.Matches(o), circleHit(o.Pos, o.Vel, o.T, q.Circle, vel, q.T0, q.T0); got != want || got != Matches(o, q) {
			t.Fatalf("%+v against %+v: Matcher %v, circleHit %v, Matches %v", o, q, got, want, Matches(o, q))
		}
	}
}
