package tprtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/storage"
)

// split divides an overflowing node into two, choosing among candidate
// distributions the one that minimizes the summed integrated sweeping
// volumes of the two groups (the TPR*-tree split objective), with the
// integrated overlap between the groups as tie-breaker.
//
// Candidate distributions follow the R*/TPR* recipe: entries are sorted by
// each MBR boundary and each VBR boundary (8 sort keys — position splits
// alone are blind to velocity skew, which is precisely what matters for
// moving objects), and every prefix/suffix cut respecting the minimum fill
// is evaluated.
func (t *Tree) split(n *node, now float64) (*splitOut, geom.MovingRect, error) {
	var sc splitScratch
	rects := sc.rects[:len(n.entries)]
	for i, e := range n.entries {
		rects[i] = e.mr.Rebase(now)
	}
	perm, cut := t.chooseSplit(&sc, rects, minAt(n.level), now)

	// Materialize the two groups, which share one backing array (the left
	// group's capacity stops at the cut).
	rid, err := t.pool.Allocate()
	if err != nil {
		return nil, geom.MovingRect{}, err
	}
	ents := make([]entry, len(n.entries))
	for i, p := range perm {
		ents[i] = n.entries[p]
	}
	right := &node{id: rid, level: n.level, entries: ents[cut:]}
	n.entries = ents[:cut:cut]
	if err := t.writeNode(n); err != nil {
		return nil, geom.MovingRect{}, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, geom.MovingRect{}, err
	}
	out := &splitOut{
		leftBound:  n.boundAt(now),
		right:      rid,
		rightBound: right.boundAt(now),
	}
	return out, out.leftBound, nil
}

// splitScratch is the working memory of one split, sized for the largest
// overflowing node (a leaf of LeafCap+1 records), so that trying the sort
// keys allocates nothing.
type splitScratch struct {
	rects, prefix, suffix [LeafCap + 1]geom.MovingRect
	keys                  [LeafCap + 1]float64
	perm, bestPerm        [LeafCap + 1]int
}

// chooseSplit returns the permutation of rects and the cut index k (left
// group = perm[:k]) minimizing the split objective. The permutation lives in
// sc.
func (t *Tree) chooseSplit(sc *splitScratch, rects []geom.MovingRect, minFill int, now float64) ([]int, int) {
	n := len(rects)
	if minFill < 1 {
		minFill = 1
	}
	maxFill := n - minFill
	bestPerm := sc.bestPerm[:n]
	if maxFill < minFill {
		// Degenerate capacity; split in the middle.
		for i := range bestPerm {
			bestPerm[i] = i
		}
		return bestPerm, n / 2
	}

	// Sort keys: the four MBR boundaries, then the four VBR boundaries. The
	// velocity keys are what lets a split group objects travelling in the
	// same direction (the property the VP paper leans on, §6.3).
	bestCost := math.Inf(1)
	bestOverlap := math.Inf(1)
	bestCut := -1
	perm, keys, prefix, suffix := sc.perm[:n], sc.keys[:n], sc.prefix[:n], sc.suffix[:n]

	for key := 0; key < 8; key++ {
		for i, r := range rects {
			perm[i] = i
			keys[i] = [8]float64{r.MBR.MinX, r.MBR.MaxX, r.MBR.MinY, r.MBR.MaxY, r.VBR.MinX, r.VBR.MaxX, r.VBR.MinY, r.VBR.MaxY}[key]
		}
		// sort.SliceStable's algorithm and its less, as a three-way compare.
		slices.SortStableFunc(perm, func(a, b int) int {
			if keys[a] < keys[b] {
				return -1
			}
			if keys[b] < keys[a] {
				return 1
			}
			return 0
		})
		// Prefix/suffix bounding rects for O(n) cut evaluation.
		prefix[0] = rects[perm[0]]
		for i := 1; i < n; i++ {
			prefix[i] = prefix[i-1].Union(rects[perm[i]], now)
		}
		suffix[n-1] = rects[perm[n-1]]
		for i := n - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(rects[perm[i]], now)
		}
		for k := minFill; k <= maxFill; k++ {
			g1, g2 := prefix[k-1], suffix[k]
			cost := t.sweepCost(g1, now) + t.sweepCost(g2, now)
			if cost > bestCost {
				continue
			}
			ov := overlapSweep(g1, g2, now, now+t.cfg.Horizon)
			if cost < bestCost || ov < bestOverlap {
				bestCost = cost
				bestOverlap = ov
				copy(bestPerm, perm)
				bestCut = k
			}
		}
	}
	return bestPerm, bestCut
}

// overlapSweep integrates the overlap area of two moving rectangles over
// [t0, t1] by Simpson's rule (3 samples — the overlap of two linearly
// moving rectangles is piecewise quadratic, so this is a close, cheap
// approximation used only for tie-breaking).
func overlapSweep(a, b geom.MovingRect, t0, t1 float64) float64 {
	f := func(t float64) float64 {
		return a.AtTime(t).Intersect(b.AtTime(t)).Area()
	}
	h := t1 - t0
	return h / 6 * (f(t0) + 4*f(t0+h/2) + f(t1))
}

// --- diagnostics -------------------------------------------------------------

// LeafBound describes one leaf node's time-parameterized bound; the Fig. 7
// experiment plots the VBR expansion rates of these.
type LeafBound struct {
	MR    geom.MovingRect
	Count int
}

// LeafBounds returns the bound of every leaf node at the given time.
func (t *Tree) LeafBounds(now float64) ([]LeafBound, error) {
	var out []LeafBound
	err := t.walk(func(n *node) {
		if n.leaf() && len(n.entries) > 0 {
			out = append(out, LeafBound{MR: n.boundAt(now), Count: len(n.entries)})
		}
	})
	return out, err
}

// walk decodes every node, depth first from the root, for the diagnostics.
func (t *Tree) walk(fn func(n *node)) error {
	stack := []pageRef{{id: t.root, level: t.height - 1}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNode(top.id, top.level)
		if err != nil {
			return err
		}
		fn(n)
		if n.leaf() {
			continue
		}
		for _, e := range n.entries {
			stack = append(stack, pageRef{id: e.child, level: top.level - 1})
		}
	}
	return nil
}

// CheckInvariants verifies structural invariants for tests: entry bounds
// conservatively contain their subtrees (at the entry's reference time and
// in velocity), levels decrease properly, counts match, and fill factors
// hold for non-root nodes.
func (t *Tree) CheckInvariants() error {
	total, err := t.checkNode(t.root, t.height-1, nil)
	if err != nil {
		return err
	}
	if total != t.size {
		return errf("size mismatch: recorded %d, found %d", t.size, total)
	}
	return nil
}

func (t *Tree) checkNode(id storage.PageID, level int, bound *geom.MovingRect) (int, error) {
	n, err := t.readNode(id, level)
	if err != nil {
		return 0, err
	}
	if id != t.root && n.underfull() {
		return 0, errf("page %d: underfull (%d at level %d)", id, len(n.entries), n.level)
	}
	if n.leaf() {
		if bound != nil {
			var slot [internalEntrySize]byte
			putMR(slot[:], *bound)
			for _, e := range n.entries {
				if !entryMayContain(slot[:], e.obj()) {
					return 0, errf("page %d: object %d escapes parent bound %v", id, e.id, *bound)
				}
			}
		}
		return len(n.entries), nil
	}
	total := 0
	for _, e := range n.entries {
		if bound != nil {
			// Parent bound must contain the child entry bound from the
			// parent's reference time onward; check at two times. At the
			// later one the two edges are the same line evaluated from
			// different reference times — equal in real arithmetic, a few
			// ulps apart in floats — hence the slack (metres), the same kind
			// entryMayContain allows.
			const slack = 1e-6
			r0 := max(bound.Ref, e.mr.Ref)
			for _, at := range [2]float64{r0, r0 + t.cfg.Horizon} {
				if !bound.AtTime(at).Expand(slack).ContainsRect(e.mr.AtTime(at)) {
					return 0, errf("page %d: child bound %v escapes parent %v at t=%g", id, e.mr, *bound, at)
				}
			}
		}
		sub, err := t.checkNode(e.child, level-1, &e.mr)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("tprtree: "+format, args...)
}
