package core

import (
	"math"

	"repro/internal/geom"
)

// QueryShape summarizes one observed query for the partitioning cost model:
// the region's half-extents and how far into the future it reached. A Store
// running the auto chooser keeps a bounded log of these; kNN queries log with
// zero extent (their cost is dominated by the velocity-spread term alone).
type QueryShape struct {
	// HalfW/HalfH are the query region's half-extents (world frame).
	HalfW, HalfH float64
	// Window is how far past the issue time the query evaluates
	// (max(T1, T0) - Now, clamped at 0).
	Window float64
}

// EstimateCost scores a candidate partitioning against a velocity sample
// and a recent query-shape log: the Eq.-10 idea — a partition's query
// windows are enlarged by the partition's velocity spread times the query's
// time window — generalized to arbitrary frames and applied per partition.
//
// Every sample velocity is routed through the candidate's static
// thresholds; per partition the velocity bounding box is accumulated in the
// partition's own frame (where a DVA partition's perpendicular spread is at
// most 2·tau while its along-axis spread stays wide, and a speed band's
// spread is bounded by twice its top speed on both axes). The cost of
// partition p for query q is then
//
//	n_p · (2·HalfW + ΔVx_p·Window) · (2·HalfH + ΔVy_p·Window)
//
// — the partition's population times the enlarged search area, i.e. the
// expected number of candidate objects a uniform-density index must touch —
// summed over partitions and averaged over the logged queries. The returned
// value is an unnormalized relative score: comparable between candidates
// evaluated on the same sample and query log, not across samples. A shape
// with a non-finite field is skipped — one NaN would make every candidate's
// score NaN and every comparison between them false.
func EstimateCost(an Analysis, sample []geom.Vec2, queries []QueryShape) float64 {
	if len(sample) == 0 || len(queries) == 0 || len(an.Frames) == 0 {
		return 0
	}
	type vbox struct {
		minX, maxX, minY, maxY float64
		n                      int
	}
	boxes := make([]vbox, len(an.Frames))
	for _, v := range sample {
		pi := an.RouteVel(v)
		f := an.Frames[pi]
		fv := v
		if !f.Identity() {
			fv = f.Rotation().Apply(v)
		}
		b := &boxes[pi]
		if b.n == 0 {
			b.minX, b.maxX, b.minY, b.maxY = fv.X, fv.X, fv.Y, fv.Y
		} else {
			b.minX = math.Min(b.minX, fv.X)
			b.maxX = math.Max(b.maxX, fv.X)
			b.minY = math.Min(b.minY, fv.Y)
			b.maxY = math.Max(b.maxY, fv.Y)
		}
		b.n++
	}
	total, scored := 0.0, 0
	for _, q := range queries {
		if s := q.HalfW + q.HalfH + q.Window; math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		scored++
		w := math.Max(q.Window, 0)
		for _, b := range boxes {
			if b.n > 0 {
				total += float64(b.n) * (2*q.HalfW + (b.maxX-b.minX)*w) * (2*q.HalfH + (b.maxY-b.minY)*w)
			}
		}
	}
	if scored == 0 {
		return 0
	}
	return total / float64(scored)
}
