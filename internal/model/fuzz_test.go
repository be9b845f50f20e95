package model

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
)

// refMatches is Matcher.Matches as it was before the Matcher had a scalar
// form: the record's PosAt, then the slice circle's constant term, circleHit,
// or MovingPointRect(...).IntersectsDuring against the static rectangle.
func refMatches(q RangeQuery, o Object) bool {
	t0, t1 := q.T0, q.EndTime()
	var vel geom.Vec2
	if q.Kind == MovingRange {
		vel = q.Vel
	}
	if q.Circle.R > 0 {
		if t1 == t0 {
			return o.PosAt(t0).Sub(q.Circle.C).NormSq()-q.Circle.R*q.Circle.R <= 0
		}
		return refCircleHit(o, q.Circle, vel, t0, t1)
	}
	rel := geom.MovingPointRect(o.PosAt(t0), o.Vel.Sub(vel), t0)
	static := geom.MovingRect{MBR: q.Rect, VBR: geom.Rect{}, Ref: t0}
	return rel.IntersectsDuring(static, t0, t1)
}

// refCircleHit is circleHit as it was, on a whole Object.
func refCircleHit(o Object, c geom.Circle, cVel geom.Vec2, t0, t1 float64) bool {
	d0 := o.PosAt(t0).Sub(c.C)
	dv := o.Vel.Sub(cVel)
	a := dv.NormSq()
	b := 2 * d0.Dot(dv)
	cc := d0.NormSq() - c.R*c.R
	S := t1 - t0
	if a == 0 {
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

// FuzzMatcherScalar: MatchesMotion, Matcher.Matches and Matches agree with the
// reference copy of the decoding predicate for arbitrary float bit patterns —
// NaN, ±Inf, ±0, subnormals, a zero or negative radius, T1 < T0. query is
// eleven float64s (Rect, Circle.C, Circle.R, Vel, T0, T1) of the kind kind%3,
// object five (Pos, Vel, T); short inputs are zero-padded.
func FuzzMatcherScalar(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	neg0, sub := math.Copysign(0, -1), 5e-324
	floats := func(fs ...float64) []byte {
		b := make([]byte, 8*len(fs))
		for i, v := range fs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	point := floats(1500, 1200, 30, -40, 12)
	for _, s := range []struct {
		kind          uint8
		query, object []byte
	}{
		// Ordinary shapes: a slice circle, an interval rectangle, a moving one,
		// an interval circle and a moving circle.
		{0, floats(0, 0, 0, 0, 1500, 1300, 400, 0, 0, 20, 20), point},
		{1, floats(900, 900, 1400, 1100, 0, 0, 0, 0, 0, 20, 50), point},
		{2, floats(900, 900, 1400, 1100, 0, 0, 0, 25, -10, 20, 50), point},
		{1, floats(900, 900, 1400, 1100, 1200, 1000, 300, 0, 0, 20, 50), point},
		{2, floats(900, 900, 1400, 1100, 1200, 1000, 300, 25, -10, 20, 50), point},
		// The record exactly on the circle and on a rectangle corner at T0,
		// where it is at (1740, 880).
		{0, floats(0, 0, 0, 0, 1740, 1480, 600, 0, 0, 20, 20), point},
		{1, floats(1740, 880, 1800, 900, 0, 0, 0, 0, 0, 20, 20), point},
		{2, floats(1740, 880, 1740, 880, 0, 0, 0, 0, 0, 20, 30), point},
		// R = 0 and a negative radius take the rectangle test; T1 < T0.
		{0, floats(0, 0, 0, 0, 1500, 1300, 0, 0, 0, 20, 10), point},
		{1, floats(900, 900, 1400, 1100, 1500, 1300, 0, 0, 0, 20, 10), point},
		{2, floats(900, 900, 1400, 1100, 1500, 1300, -5, 10, 10, 20, 10), point},
		// Non-finite and signed-zero fields in the query and the record.
		{0, floats(0, 0, 0, 0, 1500, 1300, 400, 0, 0, nan, nan), point},
		{1, floats(nan, 900, 1400, 1100, 0, 0, 0, 0, 0, 20, 50), point},
		{2, floats(900, 900, 1400, 1100, 0, 0, 0, inf, -inf, 20, 50), point},
		{1, floats(-inf, -inf, inf, inf, 0, 0, 0, 0, 0, 20, inf), point},
		{2, floats(neg0, neg0, 0, 0, 0, 0, 0, neg0, 0, neg0, 0), floats(neg0, neg0, neg0, 0, neg0)},
		{0, floats(0, 0, 0, 0, 1500, 1300, inf, 0, 0, -inf, 0), point},
		{1, floats(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1), floats(nan, 0, 0, 0, 0)},
		{2, floats(0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1), floats(0, 0, inf, -inf, 0)},
		{1, floats(0, 0, sub, sub, 0, 0, 0, 0, 0, 0, sub), floats(sub, -sub, sub, sub, 0)},
		{1, floats(0, 0, 0, 0, sub, sub, sub, 0, 0, 0, sub), floats(sub, -sub, sub, sub, 0)},
		{0, floats(0, 0, 0, 0, 1, 1, sub, 0, 0, inf, inf), floats(1, 1, 0, 0, inf)},
		{2, floats(-1e300, -1e300, 1e300, 1e300, 0, 0, 0, 1e300, -1e300, 1e10, 1e300), floats(1e300, 1e300, -1e300, 1e300, -1e10)},
		// At T0 = +Inf, t0−t0 = NaN turns the rebased rectangle NaN.
		{2, floats(0, 0, 1, 1, 0, 0, 0, 1, 1, inf, inf), floats(0, 0, 1, 1, 0)},
		{1, floats(5, 5, 1, 1, 0, 0, 0, 0, 0, 0, 1), floats(3, 3, 0, 0, 0)}, // an inverted rectangle
		{0, nil, nil},
	} {
		f.Add(s.kind, s.query, s.object)
	}

	f.Fuzz(func(t *testing.T, kind uint8, queryBytes, objectBytes []byte) {
		var qf [11]float64
		var of [5]float64
		for i := range qf {
			if len(queryBytes) >= 8*(i+1) {
				qf[i] = math.Float64frombits(binary.LittleEndian.Uint64(queryBytes[8*i:]))
			}
		}
		for i := range of {
			if len(objectBytes) >= 8*(i+1) {
				of[i] = math.Float64frombits(binary.LittleEndian.Uint64(objectBytes[8*i:]))
			}
		}
		q := RangeQuery{
			Kind:   QueryKind(kind % 3),
			Rect:   geom.Rect{MinX: qf[0], MinY: qf[1], MaxX: qf[2], MaxY: qf[3]},
			Circle: geom.Circle{C: geom.V(qf[4], qf[5]), R: qf[6]},
			Vel:    geom.V(qf[7], qf[8]),
			T0:     qf[9], T1: qf[10],
		}
		o := Object{ID: 7, Pos: geom.V(of[0], of[1]), Vel: geom.V(of[2], of[3]), T: of[4]}
		want := refMatches(q, o)
		m := NewMatcher(q)
		if got := m.MatchesMotion(o.Pos, o.Vel, o.T); got != want {
			t.Fatalf("query %+v, object %v: MatchesMotion %v, reference %v", q, o, got, want)
		}
		if got := m.Matches(o); got != want {
			t.Fatalf("query %+v, object %v: Matcher.Matches %v, reference %v", q, o, got, want)
		}
		if got := Matches(o, q); got != want {
			t.Fatalf("query %+v, object %v: Matches %v, reference %v", q, o, got, want)
		}
	})
}
