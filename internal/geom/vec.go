// Package geom provides the 2-D computational geometry used by every index
// in this repository: vectors, axis-aligned rectangles, time-parameterized
// (moving) rectangles with velocity bounds, circles, and the sweeping-region
// integrals that underlie the TPR*-tree cost model of Tao et al. (Eq. 1 of
// the VP paper) and the outlier-threshold optimization (Eq. 8-10).
//
// All coordinates are float64 metres; times are float64 timestamps ("ts").
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2-D vector (or point, depending on context).
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v . w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product, i.e. the signed
// area of the parallelogram spanned by v and w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared Euclidean length of v.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged (callers that care must check Norm() > 0 themselves).
func (v Vec2) Normalize() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return Vec2{v.X / n, v.Y / n}
}

// Perp returns v rotated 90 degrees counter-clockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Angle returns the angle of v in radians in (-pi, pi].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// DistTo returns the Euclidean distance between v and w interpreted as
// points.
func (v Vec2) DistTo(w Vec2) float64 { return v.Sub(w).Norm() }

// PerpDistToAxis returns the perpendicular distance from the point v to the
// line through the origin with (not necessarily unit) direction axis. This
// is the distance measure used by the PC-distance k-means (Algorithm 2) and
// the outlier test (Section 5.2): velocity points close to a dominant
// velocity axis have a small perpendicular distance to it.
func (v Vec2) PerpDistToAxis(axis Vec2) float64 {
	n := axis.Norm()
	if n == 0 {
		return v.Norm()
	}
	return math.Abs(v.Cross(axis)) / n
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%g, %g)", v.X, v.Y) }

// IsFinite reports whether both components are finite numbers.
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// Lerp returns v + t*(w-v).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + t*(w.X-v.X), v.Y + t*(w.Y-v.Y)}
}

// Mat2 is a 2x2 matrix stored row-major. It is used for the rotation into
// and out of a DVA-aligned coordinate frame (Section 5.3-5.4: "the
// transformation process involves a simple matrix multiplication").
type Mat2 struct {
	A, B float64 // row 0
	C, D float64 // row 1
}

// Identity2 is the identity matrix.
var Identity2 = Mat2{1, 0, 0, 1}

// RotationTo returns the orthonormal matrix whose rows are (unit, unit.Perp()).
// Multiplying a world-frame vector by it yields the vector expressed in the
// frame whose x-axis is the given (unit) direction. This is exactly the
// "[PC1; PC2]" change of basis the VP paper applies per DVA index.
func RotationTo(unit Vec2) Mat2 {
	u := unit.Normalize()
	p := u.Perp()
	return Mat2{u.X, u.Y, p.X, p.Y}
}

// RotationByAngle returns the matrix mapping world coordinates into the
// frame rotated by theta radians (i.e. RotationTo of the direction vector
// (cos theta, sin theta)).
func RotationByAngle(theta float64) Mat2 {
	return RotationTo(Vec2{math.Cos(theta), math.Sin(theta)})
}

// Apply returns m * v.
func (m Mat2) Apply(v Vec2) Vec2 {
	return Vec2{m.A*v.X + m.B*v.Y, m.C*v.X + m.D*v.Y}
}
