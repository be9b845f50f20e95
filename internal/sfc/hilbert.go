package sfc

import (
	"fmt"
	"math/bits"
)

// Hilbert is the Hilbert curve over a 2^order x 2^order grid, the Bx-tree's
// curve (the paper's configuration, Section 6).
//
// The implementation descends quadrants: at each level the point is
// translated into its quadrant and the quadrant's local frame is
// un-rotated by rot. Encode applies it to a point; the window decomposition
// applies it to a window, spelled out per quadrant, and reads the bottom
// three levels off block tables that Encode builds. sfc's tests hold the
// decomposition to a reference copy that calls rot on each window corner.
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

// AppendWindow appends to dst (like append) the sorted, disjoint, maximal
// half-open intervals [Lo, Hi) of curve values covering the inclusive cell
// window [x0, x1] x [y0, y1] (clipped to the grid); dst's existing contents
// are not touched, so a caller decomposing many windows — the Bx-tree does
// one per time bucket per query — reuses one scratch buffer. It walks the
// implicit quadtree of the curve: a quadrant fully inside the window
// contributes its whole (contiguous) curve range; a partially covered
// quadrant is recursed into with the window translated and un-rotated into
// the child frame, down to blocks of at most 8x8 cells, which are read off
// the precomputed block tables. The walk visits quadrants in curve order, so
// the intervals come out sorted and each one is merged into the last as it
// is appended when the two touch: nothing is sorted afterwards.
func (h *Hilbert) AppendWindow(dst []Interval, x0, y0, x1, y1 uint32) []Interval {
	size := h.Size()
	if !normalizeWindow(size, &x0, &y0, &x1, &y1) {
		return dst
	}
	w := window{out: dst, mark: len(dst)}
	w.decompose(x0, y0, x1, y1, size, 0)
	return w.out
}

// window is the output of one AppendWindow: the intervals appended so far,
// starting at out[mark].
type window struct {
	out  []Interval
	mark int
}

// add appends [lo, hi), extending the last appended interval instead when it
// ends at lo. Calls come in curve order, so this keeps the appended region
// sorted, disjoint and maximal.
func (w *window) add(lo, hi uint64) {
	if n := len(w.out); n > w.mark && w.out[n-1].Hi == lo {
		w.out[n-1].Hi = hi
		return
	}
	w.out = append(w.out, Interval{lo, hi})
}

// decompose handles one square of side `size` whose curve values span
// [base, base+size^2) in the current local frame; (x0..y1) is the window
// intersected with and expressed in that frame.
func (w *window) decompose(x0, y0, x1, y1, size uint32, base uint64) {
	if x0 == 0 && y0 == 0 && x1 == size-1 && y1 == size-1 {
		w.add(base, base+uint64(size)*uint64(size))
		return
	}
	if size <= blockSide {
		// In its own frame a square of side 2^k is the order-k curve, so the
		// window's cells are the bits of its column band and its row band
		// that both set, in curve order; each run of set bits is an interval.
		b := &blocks[bits.TrailingZeros32(size)]
		m := b.cols[x0][x1] & b.rows[y0][y1]
		for m != 0 {
			lo := bits.TrailingZeros64(m)
			hi := lo + bits.TrailingZeros64(^(m >> lo))
			w.add(base+uint64(lo), base+uint64(hi))
			if hi == 64 {
				return
			}
			m &^= 1<<hi - 1
		}
		return
	}
	// The four quadrants in curve order — (rx, ry) = (0, 0), (0, 1), (1, 1),
	// (1, 0) — each handed the window's part in it, translated to the
	// quadrant's corner and un-rotated into its frame as rot does: the first
	// swaps the axes, the last mirrors and swaps them, the middle two keep
	// them.
	s := size / 2
	area := uint64(s) * uint64(s)
	lx0, lx1, hx0, hx1 := x0, min(x1, s-1), max(x0, s)-s, x1-s
	ly0, ly1, hy0, hy1 := y0, min(y1, s-1), max(y0, s)-s, y1-s
	lowX, highX, lowY, highY := x0 < s, x1 >= s, y0 < s, y1 >= s
	if lowX && lowY {
		w.decompose(ly0, lx0, ly1, lx1, s, base)
	}
	if lowX && highY {
		w.decompose(lx0, hy0, lx1, hy1, s, base+area)
	}
	if highX && highY {
		w.decompose(hx0, hy0, hx1, hy1, s, base+2*area)
	}
	if highX && lowY {
		w.decompose(s-1-ly1, s-1-hx1, s-1-ly0, s-1-hx0, s, base+3*area)
	}
}

// blockSide is the side of the largest square served by a block table: 8x8
// cells, 64 curve values, one uint64 of bits.
const blockSide = 8

// blockTable holds, for the order-k curve over a 2^k x 2^k block (k <= 3),
// the curve-order bit masks of column and row bands: bit d of cols[x0][x1] is
// set when the cell at curve position d has x0 <= x <= x1, and rows likewise
// for y. A window's cells are cols[x0][x1] & rows[y0][y1].
type blockTable struct {
	cols, rows [blockSide][blockSide]uint64
}

// blocks[k] is the table of the order-k curve (blocks[0], a single cell, is
// never read: decompose's whole-square test takes it first).
var blocks = func() (tabs [4]blockTable) {
	for k := uint(1); k < uint(len(tabs)); k++ {
		c, side := &Hilbert{order: k}, uint32(1)<<k
		for lo := uint32(0); lo < side; lo++ {
			for hi := lo; hi < side; hi++ {
				for a := lo; a <= hi; a++ {
					for b := uint32(0); b < side; b++ {
						tabs[k].cols[lo][hi] |= 1 << c.Encode(a, b)
						tabs[k].rows[lo][hi] |= 1 << c.Encode(b, a)
					}
				}
			}
		}
	}
	return tabs
}()
