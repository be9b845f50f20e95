package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
//
// A Rect is also used as a velocity bounding rectangle (VBR): then MinX/MinY
// are the (signed) expansion speeds of the lower boundaries and MaxX/MaxY of
// the upper boundaries, exactly the NV notation of Section 3.1 of the paper.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R constructs a Rect, normalizing the corner order.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// RectFromPoint returns the degenerate rectangle containing only p.
func RectFromPoint(p Vec2) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// RectFromCenter returns the rectangle centered at c with half-extents hx, hy.
func RectFromCenter(c Vec2, hx, hy float64) Rect {
	return Rect{c.X - hx, c.Y - hy, c.X + hx, c.Y + hy}
}

// EmptyRect is a canonical empty rectangle: any Union with it yields the
// other operand, and it intersects nothing.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent along x (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent along y (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Vec2 { return Vec2{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// ContainsPoint reports whether p lies in the closed rectangle.
func (r Rect) ContainsPoint(p Vec2) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s is entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		max(r.MinX, s.MinX), max(r.MinY, s.MinY),
		min(r.MaxX, s.MaxX), min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		min(r.MinX, s.MinX), min(r.MinY, s.MinY),
		max(r.MaxX, s.MaxX), max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Vec2) Rect { return r.Union(RectFromPoint(p)) }

// Expand grows r by d on every side (shrinks for negative d; may become
// empty).
func (r Rect) Expand(d float64) Rect {
	out := Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// ExpandXY grows r by dx along x and dy along y on each side.
func (r Rect) ExpandXY(dx, dy float64) Rect {
	out := Rect{r.MinX - dx, r.MinY - dy, r.MaxX + dx, r.MaxY + dy}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Translate returns r shifted by v.
func (r Rect) Translate(v Vec2) Rect {
	return Rect{r.MinX + v.X, r.MinY + v.Y, r.MaxX + v.X, r.MaxY + v.Y}
}

// Corners returns the four corner points of r in CCW order starting at
// (MinX, MinY).
func (r Rect) Corners() [4]Vec2 {
	return [4]Vec2{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// BoundOfTransformed returns the axis-aligned bounding rectangle of r after
// each corner has been mapped through m. This is the "rectangular
// axis-aligned MBR of the transformed range" of Algorithm 3, line 4.
func (r Rect) BoundOfTransformed(m Mat2) Rect {
	cs := r.Corners()
	out := RectFromPoint(m.Apply(cs[0]))
	for _, c := range cs[1:] {
		out = out.UnionPoint(m.Apply(c))
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Circle is a disk with center C and radius R (R >= 0).
type Circle struct {
	C Vec2
	R float64
}

// ContainsPoint reports whether p lies in the closed disk.
func (c Circle) ContainsPoint(p Vec2) bool { return c.C.DistTo(p) <= c.R }

// Bound returns the axis-aligned bounding rectangle of the circle.
func (c Circle) Bound() Rect { return RectFromCenter(c.C, c.R, c.R) }
