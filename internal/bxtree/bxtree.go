// Package bxtree implements the Bx-tree of Jensen, Lin and Ooi (VLDB 2004)
// as described in Section 3.2 of the VP paper: moving objects are
// discretized onto a grid, linearized with the Hilbert curve and stored in
// a paged B+-tree under keys prefixed by a time bucket. Predictive queries
// enlarge their window by the min/max velocities of the data (kept in
// grid-based velocity histograms) scaled by the gap between the query time
// and the bucket's reference time, using the iterative-expansion refinement
// of Jensen et al. (MDM 2006, [14] in the paper) that the paper's
// experimental configuration adopts.
//
// Deviations from the original presentation (both behaviour-preserving):
// the bucket prefix is the raw bucket boundary index rather than its value
// modulo n+1 (the modulo is only a key-compression trick), and velocity
// histograms are kept per active bucket so that stale maxima age out exactly
// when their bucket empties.
package bxtree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bptree"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/sfc"
	"repro/internal/storage"
)

// The tree's fixed structure: the paper's Bx-tree configuration.
const (
	// gridOrder is the number of bits per axis of the Hilbert grid
	// (256x256 cells). The key layout puts the curve value in the low
	// 2*gridOrder bits and the bucket index above it.
	gridOrder = 8
	// timeBuckets is the number of time buckets n (paper setting: 2). The
	// bucket width is MaxUpdateInterval / timeBuckets.
	timeBuckets = 2
	// histogramCells is the velocity histogram resolution per axis. The
	// paper uses 1000 on a 100k-object workload; resolution only trades
	// enlargement precision against CPU, and on the Chicago workload 64
	// cells come within 0.1 % of 256 cells' query I/O.
	histogramCells = 64
	// maxScanRanges caps the number of key ranges scanned per bucket per
	// query; curve intervals beyond the cap are bridged smallest-gap-first
	// (scanning a few extra keys instead of fragmenting the scan).
	maxScanRanges = 16
	// expansionRounds bounds the iterative query enlargement.
	expansionRounds = 4
)

// Config parameterizes a Bx-tree. The zero value is completed with the
// paper's defaults by NewTree.
type Config struct {
	// Domain is the indexed data space (Table 1: 100,000 x 100,000 m).
	// Positions outside are clamped to the boundary for key purposes.
	Domain geom.Rect
	// MaxUpdateInterval is the guaranteed maximum time between an object's
	// consecutive updates (Table 1: 120 ts).
	MaxUpdateInterval float64
}

func (c Config) withDefaults() Config {
	if c.Domain.IsEmpty() || c.Domain.Area() == 0 {
		c.Domain = geom.R(0, 0, 100000, 100000)
	}
	if c.MaxUpdateInterval <= 0 {
		c.MaxUpdateInterval = 120
	}
	return c
}

// bucket tracks one active time bucket: the objects indexed at reference
// time Ref, plus its velocity histogram.
type bucket struct {
	idx   int64   // boundary index (Ref / bucketWidth)
	ref   float64 // reference time objects in this bucket are indexed at
	count int
	hist  *velocityHistogram
}

// Tree is a Bx-tree. Mutations are not safe for concurrent use (the VP
// manager and the harness serialize them, as with the TPR*-tree); read-only
// queries may run concurrently with each other — all mutable state is
// behind the buffer pool's lock — which the VP manager's parallel partition
// fan-out relies on.
type Tree struct {
	cfg   Config
	curve *sfc.Hilbert
	bt    *bptree.Tree
	pool  *storage.BufferPool

	bucketWidth float64
	// buckets are the active time buckets in ascending boundary order, kept
	// sorted as they are created and retired: there are timeBuckets+1 of them
	// while objects honour MaxUpdateInterval, so lookups scan from the
	// newest.
	buckets []*bucket
	size    int
}

var _ model.Index = (*Tree)(nil)

// NewTree creates an empty Bx-tree drawing pages from pool.
func NewTree(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	bt, err := bptree.New(pool)
	if err != nil {
		return nil, err
	}
	return &Tree{
		cfg:         cfg,
		curve:       sfc.MustHilbert(gridOrder),
		bt:          bt,
		pool:        pool,
		bucketWidth: cfg.MaxUpdateInterval / timeBuckets,
	}, nil
}

// Name implements model.Index.
func (t *Tree) Name() string { return "bx" }

// Len implements model.Index.
func (t *Tree) Len() int { return t.size }

// IO implements model.Index.
func (t *Tree) IO() model.IOStats {
	s := t.pool.Stats()
	return model.IOStats{Reads: s.Misses, Writes: s.Writes, Hits: s.Hits}
}

// bucketAt returns the position of the bucket with boundary index idx in
// t.buckets, or where it would be inserted, and whether it is there.
func (t *Tree) bucketAt(idx int64) (int, bool) {
	i := len(t.buckets)
	for i > 0 && t.buckets[i-1].idx > idx {
		i--
	}
	return i, i > 0 && t.buckets[i-1].idx == idx
}

// --- key construction --------------------------------------------------------

// boundaryIndex returns the index of the first bucket boundary at or after
// time tm: objects updated at tm are indexed forward at that boundary.
func (t *Tree) boundaryIndex(tm float64) int64 {
	return int64(math.Ceil(tm / t.bucketWidth))
}

// refTime converts a boundary index back to its timestamp.
func (t *Tree) refTime(idx int64) float64 { return float64(idx) * t.bucketWidth }

// cellOf maps a position (clamped into the domain) to its grid cell.
func (t *Tree) cellOf(p geom.Vec2) (uint32, uint32) {
	d := t.cfg.Domain
	size := float64(t.curve.Size())
	cx := (p.X - d.MinX) / d.Width() * size
	cy := (p.Y - d.MinY) / d.Height() * size
	clamp := func(v float64) uint32 {
		if v < 0 {
			return 0
		}
		if v >= size {
			return uint32(size) - 1
		}
		return uint32(v)
	}
	return clamp(cx), clamp(cy)
}

// keyFor computes the composite B+-tree key prefix for an object record:
// the object's position is extrapolated to the bucket reference time,
// clamped into the domain, discretized and linearized.
func (t *Tree) keyFor(o model.Object) (uint64, int64) {
	idx := t.boundaryIndex(o.T)
	ref := t.refTime(idx)
	cx, cy := t.cellOf(o.PosAt(ref))
	k := uint64(idx)<<(2*gridOrder) | t.curve.Encode(cx, cy)
	return k, idx
}

// --- insert / delete / update ------------------------------------------------

// Insert implements model.Index.
func (t *Tree) Insert(o model.Object) error {
	if !o.Pos.IsFinite() || !o.Vel.IsFinite() {
		return fmt.Errorf("bxtree: non-finite object %v", o)
	}
	k, idx := t.keyFor(o)
	err := t.bt.Insert(bptree.Entry{
		Key: bptree.Key{K: k, ID: o.ID},
		Pos: o.Pos,
		Vel: o.Vel,
		T:   o.T,
	})
	if err != nil {
		return err
	}
	i, ok := t.bucketAt(idx)
	if !ok {
		t.buckets = slices.Insert(t.buckets, i, &bucket{
			idx:  idx,
			ref:  t.refTime(idx),
			hist: newVelocityHistogram(t.cfg.Domain, histogramCells),
		})
		i++
	}
	b := t.buckets[i-1]
	b.count++
	b.hist.Add(o.PosAt(b.ref), o.Vel)
	t.size++
	return nil
}

// Delete implements model.Index. The record must equal the inserted one:
// the key is recomputed deterministically from it.
func (t *Tree) Delete(o model.Object) error {
	k, idx := t.keyFor(o)
	if err := t.bt.Delete(bptree.Key{K: k, ID: o.ID}); err != nil {
		return err
	}
	if i, ok := t.bucketAt(idx); ok {
		b := t.buckets[i-1]
		b.count--
		// The histogram stays conservative until the bucket dies; buckets
		// live at most MaxUpdateInterval, bounding the staleness exactly
		// as the paper's periodic histogram refresh does.
		if b.count <= 0 {
			t.buckets = slices.Delete(t.buckets, i-1, i)
		}
	}
	t.size--
	return nil
}

// Update implements model.Index (delete + insert; the object moves to the
// newest time bucket, which is how the Bx-tree migrates objects forward).
func (t *Tree) Update(old, new model.Object) error {
	if err := t.Delete(old); err != nil {
		return err
	}
	return t.Insert(new)
}

// --- queries -------------------------------------------------------------------

// Search implements model.Index for all three query kinds of Section 2.1.
func (t *Tree) Search(q model.RangeQuery) ([]model.ObjectID, error) {
	return t.SearchAppend(make([]model.ObjectID, 0, 8), q)
}

// SearchAppend is Search appending the matching ids to dst, for a caller
// that recycles its result buffers (the VP manager).
func (t *Tree) SearchAppend(dst []model.ObjectID, q model.RangeQuery) ([]model.ObjectID, error) {
	err := t.searchVisit(q, func(e bptree.Entry) bool {
		dst = append(dst, e.Key.ID)
		return true
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// queryScratch is the scratch state of one range search: the curve-interval
// buffer, recycled bucket to bucket, and the scan batch the buckets' ranges
// accumulate in. It is pooled, so a steady-state search allocates neither.
type queryScratch struct {
	ivs    []sfc.Interval
	ranges []bptree.ScanRange
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// searchVisit runs q over every time bucket, visiting each matching entry
// exactly once. The plan's ranges of all buckets go to the B+-tree as one
// batch and a single leaf walk serves it: one descent per query, sibling hops
// between nearby intervals, path-stack re-seeks across gaps and across
// buckets, and the query's exact predicate run on each candidate's position,
// velocity and time in place on the pinned leaf, so that only hits are
// decoded and copied out. Entries stream in bucket-then-key order,
// deterministic for a given tree state — the property the parallel partition
// fan-out leans on when asserting its merge is byte-identical to the
// sequential path.
func (t *Tree) searchVisit(q model.RangeQuery, visit func(bptree.Entry) bool) error {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	t.plan(q, sc)
	m := model.NewMatcher(q)
	return t.bt.ScanFiltered(sc.ranges, m.MatchesMotion, visit)
}

// plan leaves q's scan batch in sc.ranges. Per bucket, the enlarged window is
// decomposed into curve intervals and the interval list merged gap-aware down
// to the bucket's scan budget; bucket prefixes ascend, so the concatenation is
// already sorted.
func (t *Tree) plan(q model.RangeQuery, sc *queryScratch) {
	sc.ranges = sc.ranges[:0]
	for _, b := range t.buckets {
		w := t.enlargedWindow(b, q)
		if w.IsEmpty() {
			continue
		}
		// Map the window to cell coordinates through cellOf, which *saturates*
		// at the boundary cells. Keys were generated from positions clamped the
		// same way, so a window overshooting the domain still scans the
		// boundary cells where clamped objects live; the exact predicate
		// removes any false candidates this admits.
		x0, y0 := t.cellOf(geom.V(w.MinX, w.MinY))
		x1, y1 := t.cellOf(geom.V(w.MaxX, w.MaxY))
		sc.ivs = t.curve.AppendWindow(sc.ivs[:0], x0, y0, x1, y1)
		prefix := uint64(b.idx) << (2 * gridOrder)
		for _, iv := range sfc.MergeIntervals(sc.ivs, maxScanRanges) {
			sc.ranges = append(sc.ranges, bptree.ScanRange{Lo: prefix + iv.Lo, Hi: prefix + iv.Hi})
		}
	}
}

// enlargedWindow computes the query window in the bucket's reference frame.
//
// The classic Bx enlargement uses the bucket's global min/max velocities —
// always correct but loose when only a few objects are fast. The iterative
// refinement of Jensen et al. [14] shrinks it: starting from the globally
// enlarged window, re-read the histogram over the current window and
// re-enlarge with the (tighter) local velocity bounds. Because each window
// is a subset of the previous one, the velocity bounds can only tighten,
// so the iteration decreases monotonically and — by induction from the
// provably safe global start — every stored position of a matching object
// stays inside every iterate. We stop at a fixpoint or after
// expansionRounds rounds.
func (t *Tree) enlargedWindow(b *bucket, q model.RangeQuery) geom.Rect {
	r0, r1, dt0, dt1 := t.queryEndpoints(b, q)
	if b.hist.total == 0 {
		return geom.EmptyRect()
	}
	enlarge := func(vmin, vmax geom.Vec2) geom.Rect {
		return enlargeForGap(r0, vmin, vmax, dt0).Union(enlargeForGap(r1, vmin, vmax, dt1))
	}
	w := enlarge(b.hist.gMin, b.hist.gMax)
	for round := 0; round < expansionRounds; round++ {
		vmin, vmax, ok := b.hist.Range(w)
		if !ok {
			return geom.EmptyRect()
		}
		next := enlarge(vmin, vmax)
		// Monotone non-increasing by construction; guard numerically.
		next = next.Intersect(w)
		if next.IsEmpty() {
			return geom.EmptyRect()
		}
		if w.ContainsRect(next) && next.ContainsRect(w) {
			break // fixpoint
		}
		w = next
	}
	return w
}

// queryEndpoints returns the query region at its two time endpoints (for
// slice queries both collapse to T0) and the signed gaps between those
// times and the bucket reference time.
func (t *Tree) queryEndpoints(b *bucket, q model.RangeQuery) (r0, r1 geom.Rect, dt0, dt1 float64) {
	r0 = q.Region()
	r1 = r0
	t0 := q.T0
	t1 := q.EndTime()
	if q.Kind == model.MovingRange {
		r1 = r0.Translate(q.Vel.Scale(t1 - t0))
	}
	return r0, r1, t0 - b.ref, t1 - b.ref
}

// enlargeForGap expands region r to cover the stored (reference-time)
// positions of all objects with velocities in [vmin, vmax] that are inside
// r at reference+dt: stored = queried - v*dt, so each boundary moves by the
// extreme of -v*dt.
func enlargeForGap(r geom.Rect, vmin, vmax geom.Vec2, dt float64) geom.Rect {
	ax0, ax1 := vmin.X*dt, vmax.X*dt
	ay0, ay1 := vmin.Y*dt, vmax.Y*dt
	return geom.Rect{
		MinX: r.MinX - max(ax0, ax1),
		MaxX: r.MaxX - min(ax0, ax1),
		MinY: r.MinY - max(ay0, ay1),
		MaxY: r.MaxY - min(ay0, ay1),
	}
}

// ExpansionRate reports, for each active bucket, the speed (m/ts) at which
// the enlarged query window grows per unit of query predictive time along
// each axis, i.e. the velocity spread the histogram yields under the query
// region. This is the quantity plotted in Fig. 7(c,d) of the paper.
func (t *Tree) ExpansionRate(region geom.Rect) []geom.Vec2 {
	var out []geom.Vec2
	for _, b := range t.buckets {
		vmin, vmax, ok := b.hist.Range(region)
		if !ok {
			continue
		}
		out = append(out, geom.Vec2{X: vmax.X - vmin.X, Y: vmax.Y - vmin.Y})
	}
	return out
}

// CheckInvariants verifies the tree's structure for tests: the B+-tree's own
// invariants; buckets in ascending boundary order whose counts sum to Len;
// every entry under the key keyFor computes from its record, so under the
// prefix of a live bucket, each bucket holding exactly its count of entries;
// and every entry's velocity within the bounds of its histogram cell at the
// bucket's reference time and within the bucket's global bounds — the
// enlargement's soundness rests on the last.
func (t *Tree) CheckInvariants() error {
	if err := t.bt.CheckInvariants(); err != nil {
		return err
	}
	total := 0
	for i, b := range t.buckets {
		if i > 0 && t.buckets[i-1].idx >= b.idx {
			return fmt.Errorf("bxtree: bucket %d (index %d) not above bucket %d (index %d)", i, b.idx, i-1, t.buckets[i-1].idx)
		}
		total += b.count
	}
	if total != t.size {
		return fmt.Errorf("bxtree: bucket counts sum to %d, Len is %d", total, t.size)
	}
	seen := make(map[int64]int, len(t.buckets))
	var bad error
	err := t.bt.ScanMany([]bptree.ScanRange{{Lo: 0, Hi: math.MaxUint64}}, func(e bptree.Entry) bool {
		o := e.Object()
		k, idx := t.keyFor(o)
		i, ok := t.bucketAt(idx)
		switch {
		case k != e.Key.K:
			bad = fmt.Errorf("bxtree: %v stored under key %#x, keyFor gives %#x", o, e.Key.K, k)
		case !ok:
			bad = fmt.Errorf("bxtree: %v keyed under bucket index %d, which is not live", o, idx)
		default:
			b := t.buckets[i-1]
			seen[idx]++
			c, h := b.hist.vel[b.hist.cellIndex(o.PosAt(b.ref))], b.hist
			if !(c.min.X <= o.Vel.X && o.Vel.X <= c.max.X && c.min.Y <= o.Vel.Y && o.Vel.Y <= c.max.Y) {
				bad = fmt.Errorf("bxtree: %v: velocity outside its histogram cell's bounds [%v, %v]", o, c.min, c.max)
			} else if !(h.gMin.X <= o.Vel.X && o.Vel.X <= h.gMax.X && h.gMin.Y <= o.Vel.Y && o.Vel.Y <= h.gMax.Y) {
				bad = fmt.Errorf("bxtree: %v: velocity outside its bucket's global bounds [%v, %v]", o, h.gMin, h.gMax)
			}
		}
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	for _, b := range t.buckets {
		if seen[b.idx] != b.count {
			return fmt.Errorf("bxtree: bucket index %d counts %d entries, holds %d", b.idx, b.count, seen[b.idx])
		}
	}
	return nil
}
