package geom

import "fmt"

// MovingRect is a time-parameterized rectangle: the MBR/VBR pair of the
// TPR-tree family (Section 3.1 of the VP paper). At time t >= Ref the
// rectangle is
//
//	[MBR.MinX + VBR.MinX*(t-Ref), MBR.MaxX + VBR.MaxX*(t-Ref)] x (same in y)
//
// VBR.Min* are the (signed) speeds of the lower boundaries and VBR.Max* of
// the upper boundaries. For a conservative bounding rectangle VBR.Min <=
// VBR.Max per axis, so the rectangle never shrinks; transformed rectangles
// used by the cost model keep the same property.
type MovingRect struct {
	MBR Rect    // reference rectangle at time Ref
	VBR Rect    // boundary velocities
	Ref float64 // reference time
}

// MovingPointRect returns the degenerate moving rectangle tracking a point
// with position p and velocity v at reference time ref.
func MovingPointRect(p, v Vec2, ref float64) MovingRect {
	return MovingRect{MBR: RectFromPoint(p), VBR: Rect{v.X, v.Y, v.X, v.Y}, Ref: ref}
}

// AtTime returns the rectangle occupied at time t (t may precede Ref; the
// expansion is applied linearly in both directions, which callers use for
// rewinding reference times).
func (m MovingRect) AtTime(t float64) Rect {
	dt := t - m.Ref
	out := Rect{
		m.MBR.MinX + m.VBR.MinX*dt,
		m.MBR.MinY + m.VBR.MinY*dt,
		m.MBR.MaxX + m.VBR.MaxX*dt,
		m.MBR.MaxY + m.VBR.MaxY*dt,
	}
	if out.MinX > out.MaxX {
		out.MinX, out.MaxX = out.MaxX, out.MinX
	}
	if out.MinY > out.MaxY {
		out.MinY, out.MaxY = out.MaxY, out.MinY
	}
	return out
}

// Rebase returns an equivalent MovingRect whose reference time is t.
func (m MovingRect) Rebase(t float64) MovingRect {
	return MovingRect{MBR: m.AtTime(t), VBR: m.VBR, Ref: t}
}

// Union returns the tightest MovingRect (at reference time ref) that
// contains both operands for every t >= ref: the MBR is the union of the
// operand rectangles at ref and each VBR boundary takes the more permissive
// speed. This is how TPR-tree nodes bound their children.
func (m MovingRect) Union(o MovingRect, ref float64) MovingRect {
	a, b := m.Rebase(ref), o.Rebase(ref)
	return MovingRect{
		MBR: a.MBR.Union(b.MBR),
		VBR: Rect{
			min(a.VBR.MinX, b.VBR.MinX),
			min(a.VBR.MinY, b.VBR.MinY),
			max(a.VBR.MaxX, b.VBR.MaxX),
			max(a.VBR.MaxY, b.VBR.MaxY),
		},
		Ref: ref,
	}
}

// UnionAll returns the bounding MovingRect of rs at reference time ref.
// It panics on an empty slice.
func UnionAll(rs []MovingRect, ref float64) MovingRect {
	if len(rs) == 0 {
		panic("geom: UnionAll of empty slice")
	}
	out := rs[0].Rebase(ref)
	for _, r := range rs[1:] {
		out = out.Union(r, ref)
	}
	return out
}

// IntersectsDuring reports whether m and o share a point at some time in
// [t0, t1]: IntersectsRebased of both rebased to t0. This is the exact
// time-parameterized intersection test used by TPR-tree queries and the
// "transformed node" trick of Fig. 3.
func (m MovingRect) IntersectsDuring(o MovingRect, t0, t1 float64) bool {
	ma, oa := m.Rebase(t0), o.Rebase(t0)
	return IntersectsRebased(&ma, &oa, t0, t1)
}

// IntersectsRebased is IntersectsDuring for operands already rebased to t0
// (their Ref is not read). Each axis contributes two linear constraints,
// lower boundary of one below upper of the other, c0 + cv·(t−t0) <= 0; the
// rectangles intersect when the four constraint intervals and [t0, t1] share
// a time. A caller holding a rectangle in another form (the TPR*-tree's page
// slots) rebases it with AtTime's operations and calls this, so its verdict
// is IntersectsDuring's for every float input, NaN and ±0 included.
func IntersectsRebased(m, o *MovingRect, t0, t1 float64) bool {
	if t1 < t0 {
		return false
	}
	lo, hi := t0, t1
	return narrow(m.MBR.MinX-o.MBR.MaxX, m.VBR.MinX-o.VBR.MaxX, t0, &lo, &hi) &&
		narrow(o.MBR.MinX-m.MBR.MaxX, o.VBR.MinX-m.VBR.MaxX, t0, &lo, &hi) &&
		narrow(m.MBR.MinY-o.MBR.MaxY, m.VBR.MinY-o.VBR.MaxY, t0, &lo, &hi) &&
		narrow(o.MBR.MinY-m.MBR.MaxY, o.VBR.MinY-m.VBR.MaxY, t0, &lo, &hi) &&
		lo <= hi
}

// narrow intersects [lo, hi] with the times at which c0 + cv·(t−t0) <= 0.
// It reports false when no time is left: c0 > 0 with cv == 0, or lo > hi.
// A NaN bound fails neither; it fails IntersectsRebased's final lo <= hi.
func narrow(c0, cv, t0 float64, lo, hi *float64) bool {
	if cv == 0 {
		return !(c0 > 0)
	}
	bound := -c0 / cv
	if cv > 0 {
		*hi = min(*hi, t0+bound)
	} else {
		*lo = max(*lo, t0+bound)
	}
	return !(*lo > *hi)
}

// SweepVolume returns the integral of Area(t) dt for t in [t0, t1]: the
// "volume of the sweeping region" V_N'(qT) of the TPR* cost model (Eq. 1).
// Widths are clamped at zero, handling transformed rectangles that start
// empty and grow (or shrink to nothing).
//
// The integrand is a piecewise quadratic w(t)*h(t) with w, h linear and
// clamped at 0; we split [t0,t1] at the (at most two) clamp roots and
// integrate each quadratic piece exactly with BoxSweep, the one copy of the
// polynomial. A rectangle of positive width and height whose boundaries do
// not converge — every conservative bound inflated by a query extent — is a
// single piece, and its volume is BoxSweep over the whole span.
func (m MovingRect) SweepVolume(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	a := m.Rebase(t0)
	w0 := a.MBR.Width()
	h0 := a.MBR.Height()
	dw := a.VBR.MaxX - a.VBR.MinX
	dh := a.VBR.MaxY - a.VBR.MinY
	T := t1 - t0

	// Collect breakpoints where w or h crosses zero inside (0, T).
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
	sortFloats(breaks)

	total := 0.0
	for i := 0; i+1 < len(breaks); i++ {
		s0, s1 := breaks[i], breaks[i+1]
		if s1 <= s0 {
			continue
		}
		mid := (s0 + s1) / 2
		if w0+dw*mid <= 0 || h0+dh*mid <= 0 {
			continue // area is zero on this piece
		}
		total += BoxSweep(w0, h0, dw, dh, s1) - BoxSweep(w0, h0, dw, dh, s0)
	}
	return total
}

// BoxSweep is the integral over s in [0, T] of (w0+dw*s)*(h0+dh*s): the
// sweep volume of a box with widths w0, h0 growing at dw, dh, evaluated as
// the antiderivative at T. Whenever w0 > 0, h0 > 0, dw >= 0, dh >= 0,
// T >= 0 and the result is finite, it equals — bit for bit — SweepVolume of
// that box over [0, T]: nothing clamps, there is one piece, and the
// antiderivative at 0 is exactly +0. FuzzSweepKernel holds it to that.
func BoxSweep(w0, h0, dw, dh, T float64) float64 {
	return w0*h0*T + (w0*dh+h0*dw)*T*T/2 + dw*dh*T*T*T/3
}

// sortFloats is a tiny insertion sort; the slices here have <= 4 elements.
func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// String implements fmt.Stringer.
func (m MovingRect) String() string {
	return fmt.Sprintf("{MBR:%v VBR:%v @%g}", m.MBR, m.VBR, m.Ref)
}
