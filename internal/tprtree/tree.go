package tprtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// The cost model's fixed settings: the paper's TPR*-tree configuration.
const (
	// queryExtent is the query side length (m) the tree is optimized for;
	// the paper states "optimized for query size of 1000x1000 m^2". Cost
	// integrals inflate node extents by half this value per side. It is a
	// float constant so that queryExtent/2 is not an integer division.
	queryExtent = 1000.0
	// reinsertFraction is the share of entries force-reinserted on first
	// overflow (the R*/TPR* convention).
	reinsertFraction = 0.3
)

// Config tunes the tree. The zero value is usable; NewTree fills defaults.
type Config struct {
	// Horizon is the time window (ts) over which insertion/split costs
	// integrate sweeping-region volumes. The TPR* convention ties it to the
	// maximum update interval (Table 1: 120 ts).
	Horizon float64
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 120
	}
	return c
}

// Tree is a TPR*-tree. Insert, Delete and Update edit the pinned page bytes
// in place, so a mutation needs the tree to itself: no other mutation and no
// query may run beside it. core.Manager guarantees that by holding the
// partition's lock exclusively around every write and shared around every
// query; the figure harness is single-threaded. Read-only calls (Search,
// SearchKNN, LeafBounds, NodeCount) may run concurrently with each other —
// they touch no mutable tree state outside the lock-protected buffer pool —
// which the manager's parallel partition fan-out relies on.
type Tree struct {
	pool *storage.BufferPool
	cfg  Config

	root   storage.PageID
	height int // 1 = root is a leaf
	size   int

	// clock is the largest reference timestamp the tree has seen. All
	// tightening and cost integrals anchor here: a time-parameterized
	// bound is only valid from its reference time *forward* (backward
	// extrapolation is not conservative), so using a stale operation
	// time — e.g. an old record's reference during a delete — would
	// corrupt parent bounds.
	clock float64

	// reinserted has bit l set once level l did a forced reinsert during
	// the current top-level operation (R* rule: once per level per insert).
	reinserted uint64

	// pendingObjs/pendingEntries queue evictions from forced reinserts.
	// They are drained only after the triggering descent has fully unwound,
	// so no stack frame ever holds a stale node image while the tree is
	// being restructured underneath it.
	pendingObjs    []model.Object
	pendingEntries []levelEntry

	name string
}

// levelEntry is a subtree entry together with the level of the node it must
// be reinserted into.
type levelEntry struct {
	e     entry
	level int
}

var _ model.Index = (*Tree)(nil)

// NewTree creates an empty TPR*-tree drawing pages from pool.
func NewTree(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	t := &Tree{pool: pool, cfg: cfg.withDefaults(), height: 1, name: "tpr*"}
	id, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	t.root = id
	if err := t.writeNode(&node{id: id, level: 0}); err != nil {
		return nil, err
	}
	return t, nil
}

// SetName overrides the reported index name (the VP manager labels its
// partitions).
func (t *Tree) SetName(s string) { t.name = s }

// Name implements model.Index.
func (t *Tree) Name() string { return t.name }

// Len implements model.Index.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = single leaf node).
func (t *Tree) Height() int { return t.height }

// IO implements model.Index: cumulative buffer-pool counters.
func (t *Tree) IO() model.IOStats {
	s := t.pool.Stats()
	return model.IOStats{Reads: s.Misses, Writes: s.Writes, Hits: s.Hits}
}

// --- cost model --------------------------------------------------------------

// sweepCost integrates the (query-inflated) area of mr over [now,
// now+Horizon]: the metric of Eq. 1 with the query extent folded in, used for
// ChooseSubtree and splits. A bound already referenced at now, with positive
// inflated widths and boundaries that do not converge, is one geom.BoxSweep
// on its widths — the same floats SweepVolume would produce, without the
// rebase, the expansion and the clamp search. Anything else (zero width, a
// negative velocity extent, non-finite values) takes SweepVolume itself.
func (t *Tree) sweepCost(mr geom.MovingRect, now float64) float64 {
	h := queryExtent / 2
	w0 := (mr.MBR.MaxX + h) - (mr.MBR.MinX - h)
	h0 := (mr.MBR.MaxY + h) - (mr.MBR.MinY - h)
	dw := mr.VBR.MaxX - mr.VBR.MinX
	dh := mr.VBR.MaxY - mr.VBR.MinY
	if mr.Ref == now && w0 > 0 && h0 > 0 && dw >= 0 && dh >= 0 {
		if v := geom.BoxSweep(w0, h0, dw, dh, (now+t.cfg.Horizon)-now); v <= math.MaxFloat64 {
			return v
		}
	}
	inflated := geom.MovingRect{
		MBR: mr.MBR.ExpandXY(h, h),
		VBR: mr.VBR,
		Ref: mr.Ref,
	}
	return inflated.SweepVolume(now, now+t.cfg.Horizon)
}

// --- insert ------------------------------------------------------------------

// Insert implements model.Index. The object's reference time is taken as
// the current time: all cost integrals start there.
func (t *Tree) Insert(o model.Object) error {
	if !o.Pos.IsFinite() || !o.Vel.IsFinite() {
		return fmt.Errorf("tprtree: non-finite object %v", o)
	}
	t.reinserted = 0
	if o.T > t.clock {
		t.clock = o.T
	}
	now := t.clock
	if err := t.insertObj(o, now); err != nil {
		return err
	}
	if err := t.drainPending(now); err != nil {
		return err
	}
	t.size++
	return nil
}

// drainPending reinserts everything queued by forced reinsertion. Each
// reinsert is a fresh top-level descent; it may queue further evictions at
// levels that have not reinserted yet this operation, so loop until empty.
func (t *Tree) drainPending(now float64) error {
	for len(t.pendingObjs) > 0 || len(t.pendingEntries) > 0 {
		if len(t.pendingEntries) > 0 {
			le := t.pendingEntries[len(t.pendingEntries)-1]
			t.pendingEntries = t.pendingEntries[:len(t.pendingEntries)-1]
			if err := t.insertEntry(le.e, le.level, now); err != nil {
				return err
			}
			continue
		}
		o := t.pendingObjs[len(t.pendingObjs)-1]
		t.pendingObjs = t.pendingObjs[:len(t.pendingObjs)-1]
		if err := t.insertObj(o, now); err != nil {
			return err
		}
	}
	return nil
}

// insertObj routes one object record to a leaf (no size bookkeeping; used
// by Insert, forced reinsertion and condensing). A leaf with room takes it
// in place; a full one is left untouched and handed to the decoded descent,
// the only code that restructures.
func (t *Tree) insertObj(o model.Object, now float64) error {
	if done, err := t.insertInPlace(o, now); done || err != nil {
		return err
	}
	split, _, err := t.insertRec(t.root, t.height-1, o, now)
	if err != nil {
		return err
	}
	if split != nil {
		return t.growRoot(*split, now)
	}
	return nil
}

// pathStep is one internal level of a descent: the page visited and the
// entry taken out of it.
type pathStep struct {
	id storage.PageID
	ci int
}

// insertInPlace is the non-structural insert: read down choosing a subtree
// per internal page, append the slot to the leaf, then patch each ancestor's
// entry with its child's new tight bound on the way back up — 2*height-1
// page accesses, nothing decoded. No pin is held across a pool access
// (storage.Read), which is why a level is read going down and written coming
// up. done is false, with the tree unchanged, when the chosen leaf is full.
func (t *Tree) insertInPlace(o model.Object, now float64) (done bool, err error) {
	var path [maxHeight]pathStep
	mrNow := objRect(o).Rebase(now)
	id := t.root
	for level := t.height - 1; level > 0; level-- {
		step := pathStep{id: id}
		if err := t.view(id, level, func(data []byte, count int) {
			step.ci = t.chooseSubtree(data, count, mrNow, now)
			id = getChild(entrySlot(data, step.ci))
		}); err != nil {
			return false, err
		}
		path[level] = step
	}
	var bound geom.MovingRect
	if err := t.edit(id, 0, func(data []byte, count int) bool {
		if count == LeafCap {
			return false
		}
		putObj(leafSlot(data, count), o)
		putCount(data, count+1)
		bound = pageBound(data, 0, count+1, now)
		done = true
		return true
	}); err != nil || !done {
		return false, err
	}
	for level := 1; level < t.height; level++ {
		if bound, _, err = t.tighten(path[level].id, level, path[level].ci, bound, now); err != nil {
			return false, err
		}
	}
	return true, nil
}

// tighten is one step of the way back up: it replaces the rectangle of the
// entry a point operation descended through with its child's new bound and
// returns this node's own new bound (not the root's: nobody reads it) and
// its count.
func (t *Tree) tighten(id storage.PageID, level, ci int, childBound geom.MovingRect, now float64) (bound geom.MovingRect, count int, err error) {
	err = t.edit(id, level, func(data []byte, n int) bool {
		putMR(entrySlot(data, ci), childBound)
		if id != t.root {
			bound = pageBound(data, level, n, now)
		}
		count = n
		return true
	})
	return bound, count, err
}

// insertEntry routes a subtree entry to the given level (> 0); used when
// condensing after deletes and during internal-node reinsertion.
func (t *Tree) insertEntry(e entry, level int, now float64) error {
	if t.height-1 == level {
		// Target level is the root itself: extend the root.
		root, err := t.readNode(t.root, level)
		if err != nil {
			return err
		}
		root.entries = append(root.entries, e)
		if root.overflowing() {
			return t.handleOverflowRoot(root, now)
		}
		return t.writeNode(root)
	}
	split, _, err := t.insertEntryRec(t.root, t.height-1, e, level, now)
	if err != nil {
		return err
	}
	if split != nil {
		return t.growRoot(*split, now)
	}
	return nil
}

// growRoot installs a new root above the current one after a root split.
func (t *Tree) growRoot(split splitOut, now float64) error {
	if t.height == maxHeight {
		return fmt.Errorf("tprtree: height limit %d reached", maxHeight)
	}
	oldRootBound := split.leftBound
	id, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	newRoot := &node{
		id:    id,
		level: t.height,
		entries: []entry{
			{child: t.root, mr: oldRootBound},
			{child: split.right, mr: split.rightBound},
		},
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = id
	t.height++
	return nil
}

// splitOut reports a node split to the parent.
type splitOut struct {
	leftBound  geom.MovingRect
	right      storage.PageID
	rightBound geom.MovingRect
}

// insertRec is the decoded descent to level 0 for an insert that restructures
// (the chosen leaf is full). It returns a split record if the visited child
// split, and the new tight bound of the visited child (so the parent can
// tighten its entry without re-reading).
func (t *Tree) insertRec(id storage.PageID, level int, o model.Object, now float64) (*splitOut, geom.MovingRect, error) {
	n, ci, err := t.readChoosing(id, level, 0, objRect(o).Rebase(now), now)
	if err != nil {
		return nil, geom.MovingRect{}, err
	}
	if n.leaf() {
		n.objs = append(n.objs, o)
		return t.placed(n, 0, nil, now)
	}
	split, childBound, err := t.insertRec(n.entries[ci].child, level-1, o, now)
	if err != nil {
		return nil, geom.MovingRect{}, err
	}
	n.entries[ci].mr = childBound // tighten
	return t.placed(n, ci, split, now)
}

// insertEntryRec descends to targetLevel inserting subtree entry e.
func (t *Tree) insertEntryRec(id storage.PageID, level int, e entry, targetLevel int, now float64) (*splitOut, geom.MovingRect, error) {
	n, ci, err := t.readChoosing(id, level, targetLevel, e.mr.Rebase(now), now)
	if err != nil {
		return nil, geom.MovingRect{}, err
	}
	if level == targetLevel {
		n.entries = append(n.entries, e)
		return t.placed(n, 0, nil, now)
	}
	split, childBound, err := t.insertEntryRec(n.entries[ci].child, level-1, e, targetLevel, now)
	if err != nil {
		return nil, geom.MovingRect{}, err
	}
	n.entries[ci].mr = childBound
	return t.placed(n, ci, split, now)
}

// placed finishes a decoded node the descent has changed: it absorbs the
// split of child ci, if any, resolves an overflow, and otherwise writes the
// node back and reports its new tight bound.
func (t *Tree) placed(n *node, ci int, split *splitOut, now float64) (*splitOut, geom.MovingRect, error) {
	if split != nil {
		n.entries[ci].mr = split.leftBound
		n.entries = append(n.entries, entry{child: split.right, mr: split.rightBound})
	}
	if n.overflowing() {
		return t.handleOverflow(n, now)
	}
	if err := t.writeNode(n); err != nil {
		return nil, geom.MovingRect{}, err
	}
	return nil, n.boundAt(now), nil
}

// chooseSubtree picks, among the count entries of an internal page, the one
// whose integrated sweeping volume grows least when extended to cover add,
// already rebased to now (ties: smaller current volume, then the earlier
// entry). Each slot's rectangle is read once and integrated once for both
// keys; an entry that already covers add — the union is the entry, bit for
// bit — grows by vol - vol, exactly what integrating that union would give,
// so its second integral is skipped.
func (t *Tree) chooseSubtree(data []byte, count int, add geom.MovingRect, now float64) int {
	best := 0
	bestEnl := math.Inf(1)
	bestVol := math.Inf(1)
	for i := 0; i < count; i++ {
		e := getMR(entrySlot(data, i)).Rebase(now)
		vol := t.sweepCost(e, now)
		enl := vol - vol
		if u := unionRebased(e, add); !sameBits(u.MBR, e.MBR) || !sameBits(u.VBR, e.VBR) {
			enl = t.sweepCost(u, now) - vol
		}
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// readChoosing is readNode for a decoded descent toward level target: above
// it, the subtree for add (rebased to now) is chosen from the same pinned
// bytes the node is decoded from.
func (t *Tree) readChoosing(id storage.PageID, level, target int, add geom.MovingRect, now float64) (n *node, ci int, err error) {
	n = &node{id: id, level: level}
	if err := t.view(id, level, func(data []byte, count int) {
		n.decode(data, count)
		if level > target {
			ci = t.chooseSubtree(data, count, add, now)
		}
	}); err != nil {
		return nil, 0, err
	}
	return n, ci, nil
}

// handleOverflow resolves an overflowing node: forced reinsert on the first
// overflow at this level during the current operation, otherwise split.
// The node n is already 1 entry over capacity.
func (t *Tree) handleOverflow(n *node, now float64) (*splitOut, geom.MovingRect, error) {
	atRoot := n.id == t.root
	if bit := uint64(1) << n.level; !atRoot && t.reinserted&bit == 0 {
		t.reinserted |= bit
		if err := t.forcedReinsert(n, now); err != nil {
			return nil, geom.MovingRect{}, err
		}
		return nil, n.boundAt(now), nil
	}
	return t.split(n, now)
}

// handleOverflowRoot splits the root when an entry landed directly in it.
func (t *Tree) handleOverflowRoot(root *node, now float64) error {
	split, _, err := t.split(root, now)
	if err != nil {
		return err
	}
	if split != nil {
		return t.growRoot(*split, now)
	}
	return nil
}

// forcedReinsert removes the reinsertFraction of entries with the largest
// integrated center distance from the node's center trajectory (TPR* "pick
// worst") and queues them for reinsertion after the current descent
// unwinds. The node is written back immediately, so the tree is consistent
// (bounds are conservative: removing entries only loosens them).
func (t *Tree) forcedReinsert(n *node, now float64) error {
	bound := n.boundAt(now)
	c0 := bound.MBR.Center()
	cv := geom.Vec2{
		X: (bound.VBR.MinX + bound.VBR.MaxX) / 2,
		Y: (bound.VBR.MinY + bound.VBR.MaxY) / 2,
	}
	h := t.cfg.Horizon
	// Integrated squared center distance approximated by the trapezoid of
	// distances at now and now+h.
	dist := func(mr geom.MovingRect) float64 {
		m := mr.Rebase(now)
		p0 := m.MBR.Center()
		pv := geom.Vec2{
			X: (m.VBR.MinX + m.VBR.MaxX) / 2,
			Y: (m.VBR.MinY + m.VBR.MaxY) / 2,
		}
		d0 := p0.DistTo(c0)
		d1 := p0.Add(pv.Scale(h)).DistTo(c0.Add(cv.Scale(h)))
		return d0 + d1
	}

	if n.leaf() {
		k := int(float64(len(n.objs)) * reinsertFraction)
		if k < 1 {
			k = 1
		}
		sortByDesc(len(n.objs), func(i int) float64 { return dist(objRect(n.objs[i])) }, func(i, j int) {
			n.objs[i], n.objs[j] = n.objs[j], n.objs[i]
		})
		t.pendingObjs = append(t.pendingObjs, n.objs[:k]...)
		n.objs = append([]model.Object(nil), n.objs[k:]...)
		return t.writeNode(n)
	}

	k := int(float64(len(n.entries)) * reinsertFraction)
	if k < 1 {
		k = 1
	}
	sortByDesc(len(n.entries), func(i int) float64 { return dist(n.entries[i].mr) }, func(i, j int) {
		n.entries[i], n.entries[j] = n.entries[j], n.entries[i]
	})
	for _, e := range n.entries[:k] {
		t.pendingEntries = append(t.pendingEntries, levelEntry{e: e, level: n.level})
	}
	n.entries = append([]entry(nil), n.entries[k:]...)
	return t.writeNode(n)
}

// sortByDesc sorts indices [0,n) descending by key using swap (a tiny
// selection-friendly shell to avoid materializing a slice of structs).
func sortByDesc(n int, key func(int) float64, swap func(i, j int)) {
	// Simple insertion sort: n <= InternalCap+1 (~52) or LeafCap+1 (~86),
	// so the keys fit a stack array.
	var buf [LeafCap + 1]float64
	keys := buf[:n]
	for i := range keys {
		keys[i] = key(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[j] > keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			swap(j, j-1)
		}
	}
}

// --- delete ------------------------------------------------------------------

// orphans collects what a delete's condensing dissolved, for reinsertion
// once the descent has unwound.
type orphans struct {
	objs    []model.Object
	entries []levelEntry
}

// Delete implements model.Index: removes the exact record o (located by its
// trajectory; the record must equal the one inserted). Underfull nodes are
// condensed by reinsertion.
func (t *Tree) Delete(o model.Object) error {
	t.reinserted = 0
	var orph orphans
	// Anchor at the tree clock, never the (possibly stale) record time:
	// bounds must not be rewound (see the clock field).
	now := max(t.clock, o.T)

	found, _, rootCount, err := t.deleteAt(t.root, t.height-1, o, now, &orph)
	if err != nil {
		return err
	}
	if !found {
		return model.ErrNotFound
	}
	t.size--
	// Shrink the root: an internal root with one child is replaced by it.
	// The descent's own count says whether there is anything to look at.
	for rootCount == 1 && t.height > 1 {
		root, err := t.readNode(t.root, t.height-1)
		if err != nil {
			return err
		}
		if len(root.entries) != 1 {
			break
		}
		old := t.root
		t.root = root.entries[0].child
		t.height--
		if err := t.pool.Free(old); err != nil {
			return err
		}
	}
	// Reinsert orphans (entries first, at their recorded levels).
	for _, oe := range orph.entries {
		if oe.level >= t.height {
			// The tree shrank below the orphan's level: splice its
			// children back individually.
			child, err := t.readNode(oe.e.child, oe.level-1)
			if err != nil {
				return err
			}
			if child.leaf() {
				orph.objs = append(orph.objs, child.objs...)
			} else {
				for _, e := range child.entries {
					if err := t.insertEntry(e, child.level-1, now); err != nil {
						return err
					}
				}
			}
			if err := t.pool.Free(oe.e.child); err != nil {
				return err
			}
			continue
		}
		if err := t.insertEntry(oe.e, oe.level, now); err != nil {
			return err
		}
	}
	for _, obj := range orph.objs {
		if err := t.insertObj(obj, now); err != nil {
			return err
		}
	}
	return t.drainPending(now)
}

// deleteAt removes o from the subtree at id, on the page bytes: the leaf step
// closes the gap in the slots, and each ancestor on the way back is one
// tighten — 2*height-1 accesses when the containment search has one
// candidate per level, plus one per false candidate visited. It returns the
// node's new bound and count, which is how the level above learns — without
// reading the child again — whether to dissolve it (dissolveChild, decoded)
// and how Delete learns whether the root collapsed.
func (t *Tree) deleteAt(id storage.PageID, level int, o model.Object, now float64, orph *orphans) (found bool, bound geom.MovingRect, count int, err error) {
	if level == 0 {
		err = t.edit(id, 0, func(data []byte, n int) bool {
			for i := 0; i < n; i++ {
				if getID(leafSlot(data, i)) != o.ID {
					continue
				}
				copy(data[nodeHeader+i*leafEntrySize:], data[nodeHeader+(i+1)*leafEntrySize:nodeHeader+n*leafEntrySize])
				putCount(data, n-1)
				found, bound, count = true, pageBound(data, 0, n-1, now), n-1
				return true
			}
			return false
		})
		return found, bound, count, err
	}
	// The candidates are collected under one pin and visited after it is
	// released (no pin across a pool access).
	var cands [InternalCap]struct {
		ci    int
		child storage.PageID
	}
	nc := 0
	if err := t.view(id, level, func(data []byte, n int) {
		for i := 0; i < n; i++ {
			if s := entrySlot(data, i); entryMayContain(s, o) {
				cands[nc].ci, cands[nc].child = i, getChild(s)
				nc++
			}
		}
	}); err != nil {
		return false, geom.MovingRect{}, 0, err
	}
	minFill := internalMin
	if level == 1 {
		minFill = leafMin
	}
	for _, c := range cands[:nc] {
		found, childBound, childCount, err := t.deleteAt(c.child, level-1, o, now, orph)
		if err != nil {
			return false, geom.MovingRect{}, 0, err
		}
		if !found {
			continue
		}
		if childCount < minFill {
			return t.dissolveChild(id, level, c.ci, now, orph)
		}
		bound, count, err = t.tighten(id, level, c.ci, childBound, now)
		return true, bound, count, err
	}
	return false, geom.MovingRect{}, 0, nil
}

// dissolveChild condenses after a delete left child ci of node id underfull:
// the child's contents go to the orphan lists, its page is freed and its
// entry removed.
func (t *Tree) dissolveChild(id storage.PageID, level, ci int, now float64, orph *orphans) (bool, geom.MovingRect, int, error) {
	n, err := t.readNode(id, level)
	if err != nil {
		return false, geom.MovingRect{}, 0, err
	}
	child, err := t.readNode(n.entries[ci].child, level-1)
	if err != nil {
		return false, geom.MovingRect{}, 0, err
	}
	orph.objs = append(orph.objs, child.objs...)
	for _, ce := range child.entries {
		orph.entries = append(orph.entries, levelEntry{e: ce, level: child.level})
	}
	n.entries = append(n.entries[:ci], n.entries[ci+1:]...)
	if err := t.pool.Free(child.id); err != nil {
		return false, geom.MovingRect{}, 0, err
	}
	if err := t.writeNode(n); err != nil {
		return false, geom.MovingRect{}, 0, err
	}
	return true, n.boundAt(now), n.count(), nil
}

// entryMayContain is the descent test for deletes, on the bytes of internal
// slot s: the entry's rectangle must contain the object's position at the
// entry's reference time and its velocity bounds must cover the object's
// velocity. Both hold for every ancestor of the leaf the object lives in
// (bounds are conservative from their reference time both forward in space
// and across velocities). The comparisons are Rect.Expand(eps) and
// ContainsPoint's, in their order: an Expand that comes out empty leaves no
// point inside either way.
func entryMayContain(s []byte, o model.Object) bool {
	const eps = 1e-7
	p := o.PosAt(getF64(s[72:80]))
	if !(p.X >= getF64(s[8:16])-eps && p.X <= getF64(s[24:32])+eps &&
		p.Y >= getF64(s[16:24])-eps && p.Y <= getF64(s[32:40])+eps) {
		return false
	}
	return o.Vel.X >= getF64(s[40:48])-eps && o.Vel.X <= getF64(s[56:64])+eps &&
		o.Vel.Y >= getF64(s[48:56])-eps && o.Vel.Y <= getF64(s[64:72])+eps
}

// Update implements model.Index as deletion followed by insertion (the
// moving-object update model of Section 2.1).
func (t *Tree) Update(old, new model.Object) error {
	if err := t.Delete(old); err != nil {
		return err
	}
	return t.Insert(new)
}
