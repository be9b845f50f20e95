// Package tprtree implements the TPR-tree family of moving-object indexes
// (Saltenis et al., SIGMOD 2000) with the TPR*-tree improvements of Tao et
// al. (VLDB 2003) that the VP paper builds on (Section 3.1): nodes group
// time-parameterized rectangles (MBR + VBR), insertion descends by minimal
// increase of the *integrated sweeping-region volume* over a horizon, node
// rectangles are tightened to the current time whenever touched, overflow
// triggers a forced reinsert of the worst entries before splitting, and
// splits minimize the integrated volumes of the resulting groups. The
// "active tabu" path search of the original TPR* insertion is replaced by a
// greedy descent on the same cost model; all cost formulas are the paper's.
//
// Nodes are stored on 4 KB pages behind a storage.BufferPool so that
// queries are charged the same I/O metric the paper reports, and the page is
// the data structure: Insert, Delete, Search and SearchKNN read slots and
// entries out of the pinned page bytes and patch them in place. A point
// operation on a tree of height h costs 2h-1 pool accesses — one read per
// internal page going down (ChooseSubtree, or the delete's containment test,
// runs inside the pin), one pin on the leaf that appends or removes the
// 48-byte slot, and one write per internal page coming back up that replaces
// the entry's rectangle with its child's new tight bound. It is 2h-1 and not
// h because no pin may be held across another pool access (storage.Read) and
// every ancestor is tightened to the current time on every touch; skipping
// that would build a different tree. A Delete pays one more access per false
// candidate its containment search visits. Nothing on that path allocates.
//
// Only a structural change decodes pages into nodes, and a decoded node is
// one slice of entries at every level, as in GiST: a bound and what it
// bounds — a child page, or in a leaf a record's id, bounded by the record's
// degenerate moving rectangle, an exact copy of its position, velocity and
// time. decode and writeNode convert at the page boundary (48-byte record
// slots, 80-byte child slots), so each restructuring job has one path for
// every level. One decoded descent files an entry at any level; a record
// takes it only after the in-place insert found its leaf full and left it
// untouched (one wasted descent, h accesses). One forced reinsert and one
// split serve every level. What a forced reinsert evicts waits in one queue,
// and the orphans of a delete's dissolved nodes in one list, each entry
// tagged with its level, until the descent has unwound; each is then filed
// like a new entry, a record by a point insert of its own where its leaf has
// room.
//
// What a level costs once its page is pinned is arithmetic, and each piece
// is computed once, from the slot bytes. ChooseSubtree prices an entry by
// one cubic (geom.BoxSweep: the entry's query-inflated sweep volume over the
// horizon, in closed form because a conservative bound never clamps) and a
// second for its union with the new bound — skipped, growth exactly 0, when
// the union is the entry bit for bit. The decoded descent chooses from the
// same bytes with the same function. The bound folds (pageBound, unions) use
// the builtin min/max, and the delete's containment test and leaf scan read
// only the fields they compare. All of it yields the floats the general
// integral and the math package's Min/Max gave, so the tree is the same
// tree.
//
// A kNN query is priced by K, not by every slot it opens. SearchKNN is
// best-first over two heaps in pooled scratch: pending nodes by minimum
// distance, and the K best objects so far by (distance, id), sized by
// min(K, Len()). The limit is the caller's bound, lowered to the K-th best
// distance once K objects are held. An entry beyond the limit is never
// queued, and the search stops when the nearest pending node lies beyond it.
// A node at exactly the limit is still opened: it may hold an object at the
// K-th distance with a lower id, and ties there go to the lower id, as in
// model.BruteForce. A leaf slot is screened by its squared distance, read
// from the slot bytes; only a slot that passes gets the exact
// PosAt(T).DistTo(centre), so every distance returned is the oracle's to the
// bit. The nodes opened are every node no farther than the final limit, the
// ones a search that queued every slot opened.
//
// A range search is priced by the slots it tests, not by decoding them.
// SearchAppend prepares the query once — its moving rectangle rebased to T0
// and its model.Matcher — and tests each internal entry from the page bytes:
// the entry's nine scalars rebased to T0, then geom.IntersectsRebased
// against the prepared query. Each leaf record is tested on its five
// scalars, by Matcher.SliceCircleHit for a time-slice circle and
// Matcher.MatchesMotion for every other shape, the id decoded only on a hit.
// Each slot test performs the operations of the function it stands for, in
// the same order, so its verdict is that function's for every input, NaN and
// signed zeros included, and the pages opened and the answers are the
// decoding search's.
//
// Every reader validates a page's tag, level and count before trusting
// them; a page that fails reports an error wrapping storage.ErrCorruptPage.
package tprtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// Page layout:
//
//	[0]   tag (tagNode)
//	[1]   level (0 = leaf)
//	[2:4] count
//	then count fixed-size entries:
//	  leaf entry:     id(8)  pos(16) vel(16) tref(8)            = 48 B
//	  internal entry: child(8) mbr(32) vbr(32) tref(8)          = 80 B
const (
	tagNode = byte(0xA7) // arbitrary page tag value

	nodeHeader        = 4
	leafEntrySize     = 48
	internalEntrySize = 80

	// LeafCap and InternalCap are the fanouts implied by the 4 KB page.
	LeafCap     = (storage.PageSize - nodeHeader) / leafEntrySize     // 85
	InternalCap = (storage.PageSize - nodeHeader) / internalEntrySize // 51

	// maxHeight bounds the height, so a descent keeps its path in a fixed
	// array and the per-level reinsert flags in one word. At the minimum
	// fill of 20 entries per internal node it is out of reach (20^15 leaves).
	maxHeight = 16
)

// Fill-factor bounds (R*-tree convention: 40 % minimum).
var (
	leafMin     = LeafCap * 2 / 5
	internalMin = InternalCap * 2 / 5
)

// capAt and minAt are the fanout and the minimum fill of a node at level.
func capAt(level int) int {
	if level == 0 {
		return LeafCap
	}
	return InternalCap
}

func minAt(level int) int {
	if level == 0 {
		return leafMin
	}
	return internalMin
}

// entry is one slot of a node: a time-parameterized bound and what it bounds.
// In an internal node that is a child page; in a leaf it is the record id,
// and mr is the record's degenerate moving rectangle (leafEntry), from which
// obj recovers the record exactly.
type entry struct {
	mr    geom.MovingRect
	child storage.PageID // internal nodes
	id    model.ObjectID // leaves
}

// leafEntry is the entry of object record o.
func leafEntry(o model.Object) entry {
	return entry{mr: geom.MovingPointRect(o.Pos, o.Vel, o.T), id: o.ID}
}

// obj is the record of a leaf entry.
func (e entry) obj() model.Object {
	return model.Object{
		ID:  e.id,
		Pos: geom.Vec2{X: e.mr.MBR.MinX, Y: e.mr.MBR.MinY},
		Vel: geom.Vec2{X: e.mr.VBR.MinX, Y: e.mr.VBR.MinY},
		T:   e.mr.Ref,
	}
}

// node is the decoded form of a page.
type node struct {
	id      storage.PageID
	level   int // 0 = leaf
	entries []entry
}

func (n *node) leaf() bool        { return n.level == 0 }
func (n *node) overflowing() bool { return len(n.entries) > capAt(n.level) }
func (n *node) underfull() bool   { return len(n.entries) < minAt(n.level) }

// boundAt returns the tight time-parameterized bound of the node's contents
// referenced at time t (TPR* tightening). pageBound is the same fold over
// the page bytes; the two agree bit for bit.
func (n *node) boundAt(t float64) geom.MovingRect {
	out := emptyBound(t)
	for _, e := range n.entries {
		out = unionRebased(out, e.mr.Rebase(t))
	}
	if len(n.entries) == 0 {
		out.VBR = geom.Rect{}
	}
	return out
}

// pageBound is boundAt computed from the bytes of a validated page: the same
// fold with the rectangles left in scalars — a record contributes the point
// PosAt(t) (read from its position, velocity and time; the id is never
// decoded) and its velocity, an entry AtTime(t) and its VBR; none is ever
// empty, so Rect.Union's empty-operand cases reduce to min/max too. The
// builtin min/max follow the math package's NaN and signed-zero rules but
// compile inline, where the math functions are an assembly call per
// boundary.
func pageBound(data []byte, level, count int, t float64) geom.MovingRect {
	out := emptyBound(t)
	if count == 0 {
		out.VBR = geom.Rect{}
		return out
	}
	m, v := &out.MBR, &out.VBR
	for i := 0; i < count; i++ {
		var r, rv geom.Rect // slot i at time t, and its boundary speeds
		if level == 0 {
			s := leafSlot(data, i)
			vx, vy, dt := getF64(s[24:32]), getF64(s[32:40]), t-getF64(s[40:48])
			x, y := getF64(s[8:16])+vx*dt, getF64(s[16:24])+vy*dt
			r, rv = geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, geom.Rect{MinX: vx, MinY: vy, MaxX: vx, MaxY: vy}
		} else {
			mr := getMR(entrySlot(data, i))
			r, rv = mr.AtTime(t), mr.VBR
		}
		m.MinX, m.MinY = min(m.MinX, r.MinX), min(m.MinY, r.MinY)
		m.MaxX, m.MaxY = max(m.MaxX, r.MaxX), max(m.MaxY, r.MaxY)
		v.MinX, v.MinY = min(v.MinX, rv.MinX), min(v.MinY, rv.MinY)
		v.MaxX, v.MaxY = max(v.MaxX, rv.MaxX), max(v.MaxY, rv.MaxY)
	}
	return out
}

// emptyBound is the identity of unionRebased: an empty MBR, and boundary
// speeds that lose every Min/Max to an operand's.
func emptyBound(t float64) geom.MovingRect {
	return geom.MovingRect{MBR: geom.EmptyRect(), VBR: geom.EmptyRect(), Ref: t}
}

// unionRebased is a.Union(b, ref) for operands already rebased to ref, which
// is what a fold over a node's slots has on its left and ChooseSubtree on
// both sides: it skips Union's two Rebase calls (identities here) and keeps
// its min/max operand order, so the floats are the ones Union produces.
func unionRebased(a, b geom.MovingRect) geom.MovingRect {
	return geom.MovingRect{
		MBR: a.MBR.Union(b.MBR),
		VBR: geom.Rect{
			MinX: min(a.VBR.MinX, b.VBR.MinX),
			MinY: min(a.VBR.MinY, b.VBR.MinY),
			MaxX: max(a.VBR.MaxX, b.VBR.MaxX),
			MaxY: max(a.VBR.MaxY, b.VBR.MaxY),
		},
		Ref: a.Ref,
	}
}

// sameBits reports whether a and b hold the same float bits in every
// boundary (== would equate -0 with +0).
func sameBits(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) && math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) && math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// --- serialization ---------------------------------------------------------

func putF64(b []byte, f float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(f)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putRect(b []byte, r geom.Rect) {
	putF64(b[0:8], r.MinX)
	putF64(b[8:16], r.MinY)
	putF64(b[16:24], r.MaxX)
	putF64(b[24:32], r.MaxY)
}

func getRect(b []byte) geom.Rect {
	return geom.Rect{
		MinX: getF64(b[0:8]), MinY: getF64(b[8:16]),
		MaxX: getF64(b[16:24]), MaxY: getF64(b[24:32]),
	}
}

// header validates a raw page and returns its count: the tag must be ours,
// the level the one the caller descended to (every reader knows it: the
// root's is height-1 and a child's is one less, which also keeps a corrupt
// child pointer from sending a traversal in circles), and the count must fit
// the page — and be at least one on an internal page, which this tree never
// writes empty. Nothing may index a page by its count before this passes; a
// page that fails reports an error wrapping storage.ErrCorruptPage.
func header(id storage.PageID, data []byte, level int) (count int, err error) {
	count = int(binary.LittleEndian.Uint16(data[2:4]))
	if data[0] != tagNode || int(data[1]) != level || count > capAt(level) || (level > 0 && count == 0) {
		return 0, fmt.Errorf("tprtree: page %d has tag %#x, level %d, count %d where a level-%d node should be: %w",
			id, data[0], data[1], count, level, storage.ErrCorruptPage)
	}
	return count, nil
}

func putCount(data []byte, count int) { binary.LittleEndian.PutUint16(data[2:4], uint16(count)) }

// leafSlot and entrySlot return slot i of a leaf / internal page.
func leafSlot(data []byte, i int) []byte {
	off := nodeHeader + i*leafEntrySize
	return data[off : off+leafEntrySize]
}

func entrySlot(data []byte, i int) []byte {
	off := nodeHeader + i*internalEntrySize
	return data[off : off+internalEntrySize]
}

func getID(b []byte) model.ObjectID { return model.ObjectID(binary.LittleEndian.Uint64(b[0:8])) }

func getObj(b []byte) model.Object {
	return model.Object{
		ID:  getID(b),
		Pos: geom.Vec2{X: getF64(b[8:16]), Y: getF64(b[16:24])},
		Vel: geom.Vec2{X: getF64(b[24:32]), Y: getF64(b[32:40])},
		T:   getF64(b[40:48]),
	}
}

func putObj(b []byte, o model.Object) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(o.ID))
	putF64(b[8:16], o.Pos.X)
	putF64(b[16:24], o.Pos.Y)
	putF64(b[24:32], o.Vel.X)
	putF64(b[32:40], o.Vel.Y)
	putF64(b[40:48], o.T)
}

func getChild(b []byte) storage.PageID { return storage.PageID(binary.LittleEndian.Uint64(b[0:8])) }

// getMR and putMR move the rectangle of an internal slot.
func getMR(b []byte) geom.MovingRect {
	return geom.MovingRect{MBR: getRect(b[8:40]), VBR: getRect(b[40:72]), Ref: getF64(b[72:80])}
}

func putMR(b []byte, mr geom.MovingRect) {
	putRect(b[8:40], mr.MBR)
	putRect(b[40:72], mr.VBR)
	putF64(b[72:80], mr.Ref)
}

// readNode decodes the page, which must hold a node of the given level. Only
// the structural paths (overflow, underflow) and the diagnostics work on
// decoded nodes.
func (t *Tree) readNode(id storage.PageID, level int) (*node, error) {
	n := &node{id: id, level: level}
	if err := t.view(id, level, n.decode); err != nil {
		return nil, err
	}
	return n, nil
}

// decode fills n, whose level is set, from the validated bytes of its page.
func (n *node) decode(data []byte, count int) {
	n.entries = make([]entry, count)
	for i := range n.entries {
		if n.leaf() {
			n.entries[i] = leafEntry(getObj(leafSlot(data, i)))
		} else {
			s := entrySlot(data, i)
			n.entries[i] = entry{child: getChild(s), mr: getMR(s)}
		}
	}
}

func (t *Tree) writeNode(n *node) error {
	return t.pool.Write(n.id, func(data []byte) {
		data[0] = tagNode
		data[1] = byte(n.level)
		putCount(data, len(n.entries))
		for i, e := range n.entries {
			putEntry(data, n.level, i, e)
		}
	})
}

// putEntry writes e into slot i of a page at level.
func putEntry(data []byte, level, i int, e entry) {
	if level == 0 {
		putObj(leafSlot(data, i), e.obj())
		return
	}
	s := entrySlot(data, i)
	binary.LittleEndian.PutUint64(s[0:8], uint64(e.child))
	putMR(s, e.mr)
}

// view runs fn on the validated bytes of page id, a node of the given level.
// fn must not touch the pool (storage.Read).
func (t *Tree) view(id storage.PageID, level int, fn func(data []byte, count int)) error {
	var herr error
	err := t.pool.Read(id, func(data []byte) {
		count, e := header(id, data, level)
		if herr = e; e == nil {
			fn(data, count)
		}
	})
	if err != nil {
		return err
	}
	return herr
}

// edit is view with mutable access: the page is written back only if fn
// reports a change, so a lookup that finds nothing costs no disk write.
func (t *Tree) edit(id storage.PageID, level int, fn func(data []byte, count int) (modified bool)) error {
	var herr error
	err := t.pool.Update(id, func(data []byte) bool {
		count, e := header(id, data, level)
		herr = e
		return e == nil && fn(data, count)
	})
	if err != nil {
		return err
	}
	return herr
}
