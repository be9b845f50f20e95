package sfc

import "fmt"

// Hilbert is the Hilbert curve over a 2^order x 2^order grid, the Bx-tree's
// curve (the paper's configuration, Section 6).
//
// The implementation descends quadrants: at each level the point is
// translated into its quadrant and the quadrant's local frame is
// un-rotated, so the same rotation transform serves Encode, Decode and the
// window decomposition, keeping all three mutually consistent by
// construction.
type Hilbert struct {
	order uint
}

// NewHilbert returns the Hilbert curve with the given bits per axis
// (1 <= order <= MaxOrder).
func NewHilbert(order uint) (*Hilbert, error) {
	if order < 1 || order > MaxOrder {
		return nil, fmt.Errorf("sfc: hilbert order %d out of range [1,%d]", order, MaxOrder)
	}
	return &Hilbert{order: order}, nil
}

// MustHilbert is NewHilbert that panics on error; for tests and internal
// construction with constant orders.
func MustHilbert(order uint) *Hilbert {
	h, err := NewHilbert(order)
	if err != nil {
		panic(err)
	}
	return h
}

// Size returns the grid side length, 2^order.
func (h *Hilbert) Size() uint32 { return uint32(1) << h.order }

// rot applies the level-s quadrant frame transform for quadrant (rx, ry).
// It is an involution (flip-both-axes commutes with swap), so it serves as
// its own inverse in Decode.
func rot(s uint32, x, y *uint32, rx, ry uint32) {
	if ry == 0 {
		if rx == 1 {
			*x = s - 1 - *x
			*y = s - 1 - *y
		}
		*x, *y = *y, *x
	}
}

// quadRank maps quadrant bits (rx, ry) to the curve visit order 0..3.
func quadRank(rx, ry uint32) uint64 { return uint64((3 * rx) ^ ry) }

// rankQuad inverts quadRank.
func rankQuad(q uint64) (rx, ry uint32) {
	rx = uint32(1 & (q >> 1))
	ry = uint32(1 & (q ^ uint64(rx)))
	return rx, ry
}

// Encode maps a cell to its curve value. Coordinates must be < Size.
func (h *Hilbert) Encode(x, y uint32) uint64 {
	size := h.Size()
	if x >= size || y >= size {
		panic(fmt.Sprintf("sfc: hilbert cell (%d,%d) outside %dx%d grid", x, y, size, size))
	}
	var d uint64
	for s := size / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x >= s {
			rx = 1
			x -= s
		}
		if y >= s {
			ry = 1
			y -= s
		}
		d += quadRank(rx, ry) * uint64(s) * uint64(s)
		rot(s, &x, &y, rx, ry)
	}
	return d
}

// Decode inverts Encode.
func (h *Hilbert) Decode(d uint64) (uint32, uint32) {
	size := h.Size()
	if d >= uint64(size)*uint64(size) {
		panic(fmt.Sprintf("sfc: hilbert value %d outside %dx%d grid", d, size, size))
	}
	var x, y uint32
	t := d
	for s := uint32(1); s < size; s *= 2 {
		rx, ry := rankQuad(t & 3)
		rot(s, &x, &y, rx, ry)
		x += s * rx
		y += s * ry
		t >>= 2
	}
	return x, y
}

// DecomposeWindow returns the sorted, disjoint, maximal half-open intervals
// [Lo, Hi) of curve values covering the inclusive cell window [x0, x1] x
// [y0, y1] (clipped to the grid). It walks the implicit quadtree of the
// curve: a quadrant fully inside the window contributes its whole
// (contiguous) curve range; a partially covered quadrant is recursed into
// with the window translated and un-rotated into the child frame.
func (h *Hilbert) DecomposeWindow(x0, y0, x1, y1 uint32) []Interval {
	return h.AppendWindow(nil, x0, y0, x1, y1)
}

// AppendWindow is DecomposeWindow appending into dst (like append), so a
// caller decomposing many windows — the Bx-tree does one per time bucket
// per query — can reuse a single scratch buffer instead of allocating a
// fresh interval list each time. The appended region is itself sorted,
// disjoint and maximal; dst's existing contents are not touched.
func (h *Hilbert) AppendWindow(dst []Interval, x0, y0, x1, y1 uint32) []Interval {
	size := h.Size()
	if !normalizeWindow(size, &x0, &y0, &x1, &y1) {
		return dst
	}
	mark := len(dst)
	h.decompose(x0, y0, x1, y1, size, 0, &dst)
	return compactAppended(dst, mark)
}

// decompose handles one square of side `size` whose curve values span
// [base, base+size^2) in the current local frame; (x0..y1) is the window
// intersected with and expressed in that frame.
func (h *Hilbert) decompose(x0, y0, x1, y1, size uint32, base uint64, out *[]Interval) {
	if x0 == 0 && y0 == 0 && x1 == size-1 && y1 == size-1 {
		*out = append(*out, Interval{base, base + uint64(size)*uint64(size)})
		return
	}
	if size == 1 {
		*out = append(*out, Interval{base, base + 1})
		return
	}
	s := size / 2
	area := uint64(s) * uint64(s)
	for q := uint64(0); q < 4; q++ {
		rx, ry := rankQuad(q)
		// Quadrant extent in parent frame.
		qx0, qy0 := rx*s, ry*s
		qx1, qy1 := qx0+s-1, qy0+s-1
		// Intersect window with quadrant.
		ix0, iy0 := maxU32(x0, qx0), maxU32(y0, qy0)
		ix1, iy1 := minU32(x1, qx1), minU32(y1, qy1)
		if ix0 > ix1 || iy0 > iy1 {
			continue
		}
		// Translate into quadrant-local coordinates.
		ix0 -= qx0
		ix1 -= qx0
		iy0 -= qy0
		iy1 -= qy0
		// Un-rotate the window into the child frame. rot maps child-frame
		// points to parent-quadrant points and is an involution, so
		// applying it to the corners maps parent-local to child-frame.
		ax, ay := ix0, iy0
		bx, by := ix1, iy1
		rot(s, &ax, &ay, rx, ry)
		rot(s, &bx, &by, rx, ry)
		nx0, nx1 := minU32(ax, bx), maxU32(ax, bx)
		ny0, ny1 := minU32(ay, by), maxU32(ay, by)
		h.decompose(nx0, ny0, nx1, ny1, s, base+q*area, out)
	}
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
