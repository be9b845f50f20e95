package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecBasics(t *testing.T) {
	v := V(3, 4)
	if v.Norm() != 5 {
		t.Fatalf("Norm = %g, want 5", v.Norm())
	}
	if v.NormSq() != 25 {
		t.Fatalf("NormSq = %g, want 25", v.NormSq())
	}
	if got := v.Add(V(1, -1)); got != V(4, 3) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(V(1, -1)); got != V(2, 5) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got != V(6, 8) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(V(2, 1)); got != 10 {
		t.Fatalf("Dot = %g", got)
	}
	if got := v.Cross(V(1, 0)); got != -4 {
		t.Fatalf("Cross = %g", got)
	}
	if got := v.Perp(); got != V(-4, 3) {
		t.Fatalf("Perp = %v", got)
	}
	u := v.Normalize()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Fatalf("Normalize norm = %g", u.Norm())
	}
	if V(0, 0).Normalize() != V(0, 0) {
		t.Fatal("Normalize of zero should be zero")
	}
}

func TestPerpDistToAxis(t *testing.T) {
	// Distance of (1,1) to the x-axis is 1.
	if d := V(1, 1).PerpDistToAxis(V(5, 0)); !almostEq(d, 1, 1e-12) {
		t.Fatalf("dist = %g, want 1", d)
	}
	// Distance to the diagonal axis of a point on the diagonal is 0.
	if d := V(3, 3).PerpDistToAxis(V(1, 1)); !almostEq(d, 0, 1e-12) {
		t.Fatalf("dist = %g, want 0", d)
	}
	// Zero axis falls back to the norm.
	if d := V(3, 4).PerpDistToAxis(V(0, 0)); !almostEq(d, 5, 1e-12) {
		t.Fatalf("dist = %g, want 5", d)
	}
	// Sign of axis is irrelevant.
	if d1, d2 := V(2, 5).PerpDistToAxis(V(1, 2)), V(2, 5).PerpDistToAxis(V(-1, -2)); !almostEq(d1, d2, 1e-12) {
		t.Fatalf("axis sign changed distance: %g vs %g", d1, d2)
	}
}

func TestRotationRoundTrip(t *testing.T) {
	f := func(px, py, ang float64) bool {
		p := V(math.Mod(px, 1e6), math.Mod(py, 1e6))
		m := RotationByAngle(math.Mod(ang, 2*math.Pi))
		back := RotationByAngle(-math.Mod(ang, 2*math.Pi)).Apply(m.Apply(p))
		return almostEq(back.X, p.X, 1e-6) && almostEq(back.Y, p.Y, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotationIsometry(t *testing.T) {
	f := func(ax, ay, bx, by, ang float64) bool {
		a, b := V(math.Mod(ax, 1e6), math.Mod(ay, 1e6)), V(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		m := RotationByAngle(ang)
		return almostEq(a.DistTo(b), m.Apply(a).DistTo(m.Apply(b)), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotationToMapsAxisToX(t *testing.T) {
	dir := V(1, 1).Normalize()
	m := RotationTo(dir)
	got := m.Apply(dir)
	if !almostEq(got.X, 1, 1e-12) || !almostEq(got.Y, 0, 1e-12) {
		t.Fatalf("axis maps to %v, want (1,0)", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 2)
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Fatalf("bad metrics: %v", r)
	}
	if r.Center() != V(2, 1) {
		t.Fatalf("center = %v", r.Center())
	}
	if !r.ContainsPoint(V(4, 2)) || r.ContainsPoint(V(4.01, 2)) {
		t.Fatal("ContainsPoint boundary wrong")
	}
	// R normalizes corners.
	if R(4, 2, 0, 0) != r {
		t.Fatal("R should normalize corner order")
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 {
		t.Fatal("empty rect should have zero metrics")
	}
	r := R(1, 1, 2, 2)
	if e.Union(r) != r || r.Union(e) != r {
		t.Fatal("union with empty should be identity")
	}
	if !e.Intersect(r).IsEmpty() || !r.Intersect(e).IsEmpty() {
		t.Fatal("empty intersects nothing")
	}
	if !r.ContainsRect(e) {
		t.Fatal("every rect contains the empty rect")
	}
}

func TestRectIntersectUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randRect := func() Rect {
		x, y := rng.Float64()*100, rng.Float64()*100
		return R(x, y, x+rng.Float64()*50, y+rng.Float64()*50)
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		// Symmetry.
		if a.Intersect(b) != b.Intersect(a) {
			t.Fatal("Intersect not symmetric")
		}
		// Union contains both.
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatal("union does not contain operands")
		}
		// Intersection contained in both.
		iv := a.Intersect(b)
		if !iv.IsEmpty() && (!a.ContainsRect(iv) || !b.ContainsRect(iv)) {
			t.Fatal("intersection not contained in operands")
		}
		// Point sampling consistency.
		p := V(rng.Float64()*150, rng.Float64()*150)
		if a.ContainsPoint(p) && b.ContainsPoint(p) && !iv.ContainsPoint(p) {
			t.Fatal("intersection misses common point")
		}
		if a.ContainsPoint(p) && !u.ContainsPoint(p) {
			t.Fatal("union misses member point")
		}
	}
}

func TestRectTransformBound(t *testing.T) {
	r := R(0, 0, 10, 0) // degenerate horizontal segment
	m := RotationByAngle(math.Pi / 2)
	b := r.BoundOfTransformed(m)
	// Rotating the x-axis segment by 90 degrees in the "to-frame" mapping
	// sends (10,0) to (0,-10).
	if !b.ContainsPoint(V(0, -10)) || !b.ContainsPoint(V(0, 0)) {
		t.Fatalf("bound %v does not contain rotated segment", b)
	}
	if b.Width() > 1e-9 {
		t.Fatalf("rotated segment should be vertical, got width %g", b.Width())
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: V(5, 5), R: 2}
	if !c.ContainsPoint(V(5, 7)) || c.ContainsPoint(V(5, 7.01)) {
		t.Fatal("circle containment boundary wrong")
	}
	if got := c.Bound(); got != R(3, 3, 7, 7) {
		t.Fatalf("bound = %v", got)
	}
}

func TestMovingRectAtTime(t *testing.T) {
	m := MovingRect{MBR: R(0, 0, 2, 2), VBR: Rect{MinX: -1, MinY: 0, MaxX: 1, MaxY: 2}, Ref: 10}
	got := m.AtTime(12)
	want := R(-2, 0, 4, 6)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("AtTime = %v, want %v", got, want)
	}
	if !m.AtTime(10).ApproxEqual(m.MBR, 0) {
		t.Fatal("AtTime(Ref) must be MBR")
	}
}

func TestMovingRectRebase(t *testing.T) {
	m := MovingRect{MBR: R(0, 0, 2, 2), VBR: Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, Ref: 0}
	r := m.Rebase(5)
	for _, tt := range []float64{5, 6, 10} {
		if !r.AtTime(tt).ApproxEqual(m.AtTime(tt), 1e-9) {
			t.Fatalf("rebase changed extent at t=%g", tt)
		}
	}
}

func TestMovingRectUnionContains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randMR := func() MovingRect {
		x, y := rng.Float64()*100, rng.Float64()*100
		return MovingRect{
			MBR: R(x, y, x+rng.Float64()*10, y+rng.Float64()*10),
			VBR: R(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2),
			Ref: rng.Float64() * 5,
		}
	}
	for i := 0; i < 500; i++ {
		a, b := randMR(), randMR()
		ref := 5.0
		u := a.Union(b, ref)
		for _, dt := range []float64{0, 1, 7, 30} {
			tt := ref + dt
			if !u.AtTime(tt).Expand(1e-9).ContainsRect(a.AtTime(tt)) {
				t.Fatalf("union misses a at t=%g", tt)
			}
			if !u.AtTime(tt).Expand(1e-9).ContainsRect(b.AtTime(tt)) {
				t.Fatalf("union misses b at t=%g", tt)
			}
		}
	}
}

// sampledIntersect is a brute-force oracle for IntersectsDuring.
func sampledIntersect(a, b MovingRect, t0, t1 float64, steps int) bool {
	for i := 0; i <= steps; i++ {
		tt := t0 + (t1-t0)*float64(i)/float64(steps)
		if !a.AtTime(tt).Intersect(b.AtTime(tt)).IsEmpty() {
			return true
		}
	}
	return false
}

func TestIntersectsDuringAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randMR := func() MovingRect {
		x, y := rng.Float64()*60, rng.Float64()*60
		return MovingRect{
			MBR: R(x, y, x+rng.Float64()*15, y+rng.Float64()*15),
			VBR: R(rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*6-3),
			Ref: 0,
		}
	}
	agree, disagree := 0, 0
	for i := 0; i < 3000; i++ {
		a, b := randMR(), randMR()
		got := a.IntersectsDuring(b, 0, 20)
		want := sampledIntersect(a, b, 0, 20, 800)
		if got == want {
			agree++
			continue
		}
		// Sampling can only under-report (miss grazing contact); an exact
		// "true" against sampled "false" is acceptable, the reverse is not.
		if !got && want {
			t.Fatalf("IntersectsDuring=false but sampling found overlap: %v %v", a, b)
		}
		disagree++
	}
	if disagree > 60 { // grazing contacts should be rare
		t.Fatalf("too many grazing disagreements: %d/3000", disagree)
	}
	_ = agree
	// A square approaching another at 1/ts first touches it at t=3.
	n := MovingRect{MBR: R(0, 0, 2, 2), VBR: Rect{}, Ref: 0}
	q := MovingRect{MBR: R(5, 0, 7, 2), VBR: Rect{MinX: -1, MinY: 0, MaxX: -1, MaxY: 0}, Ref: 0}
	if !n.IntersectsDuring(q, 0, 3.01) {
		t.Fatal("approaching squares should touch by t=3.01")
	}
}

func TestSweepVolumeStatic(t *testing.T) {
	m := MovingRect{MBR: R(0, 0, 2, 3), VBR: Rect{}, Ref: 0}
	if got := m.SweepVolume(0, 10); !almostEq(got, 60, 1e-9) {
		t.Fatalf("static sweep = %g, want 60", got)
	}
}

func TestSweepVolumeGrowing(t *testing.T) {
	// Unit square growing 1/ts on each side in both axes:
	// area(t) = (1+2t)^2; integral over [0,1] = [ (1+2t)^3 / 6 ] = (27-1)/6.
	m := MovingRect{MBR: R(0, 0, 1, 1), VBR: Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, Ref: 0}
	want := 26.0 / 6.0
	if got := m.SweepVolume(0, 1); !almostEq(got, want, 1e-9) {
		t.Fatalf("sweep = %g, want %g", got, want)
	}
}

func TestSweepVolumeShrinkingClamps(t *testing.T) {
	// Square shrinking to nothing at t=1 then "negative" (clamped).
	m := MovingRect{MBR: R(0, 0, 2, 2), VBR: Rect{MinX: 1, MinY: 1, MaxX: -1, MaxY: -1}, Ref: 0}
	// area(t) = (2-2t)^2 for t<1, 0 after. Integral over [0,2] = 8/6... :
	// ∫0^1 (2-2t)^2 dt = [ -(2-2t)^3/6 ]0^1 = 8/6.
	want := 8.0 / 6.0
	if got := m.SweepVolume(0, 2); !almostEq(got, want, 1e-9) {
		t.Fatalf("sweep = %g, want %g", got, want)
	}
}

func TestSweepVolumeNumericAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		m := MovingRect{
			MBR: R(rng.Float64()*10, rng.Float64()*10, rng.Float64()*30, rng.Float64()*30),
			VBR: R(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4),
			Ref: 0,
		}
		t1 := rng.Float64() * 20
		got := m.SweepVolume(0, t1)
		// Riemann sum oracle.
		const steps = 4000
		sum := 0.0
		for s := 0; s < steps; s++ {
			tt := t1 * (float64(s) + 0.5) / steps
			sum += m.AtTime(tt).Area()
		}
		sum *= t1 / steps
		if math.Abs(got-sum) > 1e-2*(1+sum) {
			t.Fatalf("sweep %g vs numeric %g for %v over [0,%g]", got, sum, m, t1)
		}
	}
}

// FuzzSweepKernel: wherever the closed form applies — positive widths,
// boundaries that do not converge, a non-negative span and a finite result —
// BoxSweep over the whole span and SweepVolume's piecewise integral of the
// same box produce the same float bits. Seeds cover the shapes the TPR*-tree
// integrates (query-inflated bounds over a 120 ts horizon), zero growth,
// subnormal and overflowing products, and a zero span.
func FuzzSweepKernel(f *testing.F) {
	for _, s := range [][5]float64{
		{1000, 1000, 0, 0, 120},
		{1523.25, 1001.5, 180, 199.75, 120.00000000000001},
		{1000, 1000, 200, 200, 120},
		{1, 1, 2, 2, 1},
		{5e-324, 1, 0, 1e-300, 3},
		{1e200, 1e200, 1, 1, 120},
		{1e100, 1e100, 1e100, 1e100, 1e100},
		{7, 3, 0, 0, 0},
		{7, 3, 1, 1, math.Copysign(0, -1)},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, w0, h0, dw, dh, T float64) {
		if !(w0 > 0 && h0 > 0 && dw >= 0 && dh >= 0 && T >= 0) {
			return
		}
		v := BoxSweep(w0, h0, dw, dh, T)
		if !(v <= math.MaxFloat64) {
			return
		}
		box := MovingRect{MBR: Rect{MaxX: w0, MaxY: h0}, VBR: Rect{MaxX: dw, MaxY: dh}}
		if g := box.SweepVolume(0, T); math.Float64bits(v) != math.Float64bits(g) {
			t.Fatalf("BoxSweep(%g, %g, %g, %g, %g) = %g (%#x), SweepVolume %g (%#x)",
				w0, h0, dw, dh, T, v, math.Float64bits(v), g, math.Float64bits(g))
		}
	})
}

func TestUnionAll(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionAll of empty slice should panic")
		}
	}()
	UnionAll(nil, 0)
}

// ApproxEqual reports whether r and s agree within eps on every boundary.
func (r Rect) ApproxEqual(s Rect, eps float64) bool {
	return math.Abs(r.MinX-s.MinX) <= eps && math.Abs(r.MaxX-s.MaxX) <= eps &&
		math.Abs(r.MinY-s.MinY) <= eps && math.Abs(r.MaxY-s.MaxY) <= eps
}
