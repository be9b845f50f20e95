package bxtree

import (
	"math"

	"repro/internal/geom"
)

// velocityHistogram is the grid-based min/max velocity summary the Bx-tree
// consults to enlarge query windows (Section 3.2: "histograms on a grid
// base are maintained for the maximum/minimum velocity of different
// portions of the data space"). Each cell keeps the componentwise min and
// max velocity of the objects whose reference position falls in it.
//
// The histogram is insert-only; the owning bucket's bounded lifetime keeps
// it from going stale (see Tree.Delete). Its folds use the builtin min and
// max, inline where math.Min and math.Max are an assembly call per cell on
// amd64. The two agree on ±0 and NaN and differ only on a NaN beside an
// infinity, which cannot arise: Insert admits finite velocities alone.
type velocityHistogram struct {
	domain geom.Rect
	cells  int
	// vel is each cell's min/max velocity, row-major. An empty cell holds
	// +Inf minima and −Inf maxima, the identities of min and max, so Add and
	// Range fold every cell alike and an empty one changes nothing.
	vel []cellVel
	// global fallbacks for windows that clip nothing, from the same
	// identities.
	gMin, gMax geom.Vec2
	total      int
}

// cellVel is one histogram cell: the componentwise velocity bounds of the
// objects in it.
type cellVel struct {
	min, max geom.Vec2
}

func newVelocityHistogram(domain geom.Rect, cells int) *velocityHistogram {
	h := &velocityHistogram{domain: domain, cells: cells, vel: make([]cellVel, cells*cells),
		gMin: emptyCell.min, gMax: emptyCell.max}
	for i := range h.vel {
		h.vel[i] = emptyCell
	}
	return h
}

var emptyCell = cellVel{
	min: geom.Vec2{X: math.Inf(1), Y: math.Inf(1)},
	max: geom.Vec2{X: math.Inf(-1), Y: math.Inf(-1)},
}

// cellIndex maps a position to its histogram cell (clamped).
func (h *velocityHistogram) cellIndex(p geom.Vec2) int {
	fx := (p.X - h.domain.MinX) / h.domain.Width() * float64(h.cells)
	fy := (p.Y - h.domain.MinY) / h.domain.Height() * float64(h.cells)
	cx := clampInt(int(fx), 0, h.cells-1)
	cy := clampInt(int(fy), 0, h.cells-1)
	return cy*h.cells + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Add records an object's velocity at its reference position.
func (h *velocityHistogram) Add(pos, vel geom.Vec2) {
	c := &h.vel[h.cellIndex(pos)]
	c.min = geom.Vec2{X: min(c.min.X, vel.X), Y: min(c.min.Y, vel.Y)}
	c.max = geom.Vec2{X: max(c.max.X, vel.X), Y: max(c.max.Y, vel.Y)}
	h.gMin = geom.Vec2{X: min(h.gMin.X, vel.X), Y: min(h.gMin.Y, vel.Y)}
	h.gMax = geom.Vec2{X: max(h.gMax.X, vel.X), Y: max(h.gMax.Y, vel.Y)}
	h.total++
}

// Range returns the componentwise min/max velocity over the cells that
// intersect region r. ok is false when the histogram is empty; when r
// covers no occupied cell the global bounds are returned (conservative:
// an expanding window must not under-estimate velocities just because its
// current footprint is sparse).
func (h *velocityHistogram) Range(r geom.Rect) (vmin, vmax geom.Vec2, ok bool) {
	if h.total == 0 {
		return geom.Vec2{}, geom.Vec2{}, false
	}
	clipped := r.Intersect(h.domain)
	if clipped.IsEmpty() {
		return h.gMin, h.gMax, true
	}
	x0 := clampInt(int((clipped.MinX-h.domain.MinX)/h.domain.Width()*float64(h.cells)), 0, h.cells-1)
	x1 := clampInt(int((clipped.MaxX-h.domain.MinX)/h.domain.Width()*float64(h.cells)), 0, h.cells-1)
	y0 := clampInt(int((clipped.MinY-h.domain.MinY)/h.domain.Height()*float64(h.cells)), 0, h.cells-1)
	y1 := clampInt(int((clipped.MaxY-h.domain.MinY)/h.domain.Height()*float64(h.cells)), 0, h.cells-1)

	acc := emptyCell
	for cy := y0; cy <= y1; cy++ {
		for _, c := range h.vel[cy*h.cells+x0 : cy*h.cells+x1+1] {
			acc.min.X = min(acc.min.X, c.min.X)
			acc.min.Y = min(acc.min.Y, c.min.Y)
			acc.max.X = max(acc.max.X, c.max.X)
			acc.max.Y = max(acc.max.Y, c.max.Y)
		}
	}
	if acc.min.X > acc.max.X { // every cell empty: the fold kept its identities
		return h.gMin, h.gMax, true
	}
	return acc.min, acc.max, true
}
