// Package bptree implements a disk-paged B+-tree keyed by (uint64 key,
// uint64 object id) composite keys, storing fixed-size moving-object
// records in its leaves. It is the substrate under the Bx-tree (Section 3.2
// of the VP paper), which maps 2-D positions to 1-D keys and relies on the
// B+-tree for paged storage, logarithmic point operations and leaf-chained
// range scans.
//
// Nodes live on 4 KB pages behind a storage.BufferPool, so every traversal
// is charged through the same I/O accounting the paper measures. Duplicate
// keys are supported naturally because the object id participates in the
// ordering, keeping every composite key unique.
//
// The page is the data structure for point operations. Insert, Delete and
// Get binary-search the separator keys of each internal page in place, one
// pin per level released before the next, and finish with one pin on the
// leaf whose closure binary-searches the packed record slots, shifts the
// tail and patches the count: height page accesses, nothing decoded,
// nothing allocated. Only a structural change — a full leaf, an underfull
// child — decodes pages into nodes, and split, borrow and merge exist once,
// on that decoded form. The range scan (ScanMany) keeps a decoded path.
//
// Every reader validates a page's tag and count before trusting them; a page
// that fails reports an error wrapping storage.ErrCorruptPage.
package bptree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// Key is the composite B+-tree key: K orders first, ID breaks ties (and
// makes composite keys unique — multiple objects may share a Bx cell).
type Key struct {
	K  uint64
	ID model.ObjectID
}

// Less reports k < o in lexicographic order.
func (k Key) Less(o Key) bool {
	if k.K != o.K {
		return k.K < o.K
	}
	return k.ID < o.ID
}

// Entry is a leaf record: the key plus the object state needed to answer
// predictive queries (position/velocity/reference time).
type Entry struct {
	Key Key
	Pos geom.Vec2
	Vel geom.Vec2
	T   float64
}

// Object converts the entry back into a model.Object.
func (e Entry) Object() model.Object {
	return model.Object{ID: e.Key.ID, Pos: e.Pos, Vel: e.Vel, T: e.T}
}

// Page layout constants. A leaf page is:
//
//	[0]    tag (tagLeaf)
//	[1:3]  count (uint16)
//	[3:11] next leaf PageID
//	then count * entrySize records
//
// An internal page is:
//
//	[0]    tag (tagInternal)
//	[1:3]  count = number of separator keys (children = count+1)
//	then (count+1) * 8 child PageIDs, then count * keySize separators
const (
	tagLeaf     = byte(0xB1) // distinct page tags; values arbitrary
	tagInternal = byte(0xB2)

	entrySize = 16 + 16 + 16 + 8 // key(16) + pos(16) + vel(16) + t(8)
	keySize   = 16

	leafHeader = 1 + 2 + 8
	// LeafCap is the maximum number of entries per leaf page.
	LeafCap = (storage.PageSize - leafHeader) / entrySize // 72
	// InternalCap is the maximum number of separator keys per internal page.
	InternalCap = (storage.PageSize - 3 - 8) / (8 + keySize) // 170

	leafMin     = LeafCap / 2
	internalMin = InternalCap / 2
)

// node is the decoded in-memory form of a page.
type node struct {
	id       storage.PageID
	leaf     bool
	entries  []Entry          // leaf only
	next     storage.PageID   // leaf only
	keys     []Key            // internal only
	children []storage.PageID // internal only, len(keys)+1
}

// Tree is the B+-tree handle. Mutations are not safe for concurrent use
// with anything, reads included: Insert and Delete rewrite leaf bytes in
// place inside the buffer-pool frame, which is sound only because
// core.Manager holds the partition lock exclusively for writes and shared
// for queries. Read-only operations (ScanMany, Get) may run
// concurrently with each other — they share no mutable tree state and the
// buffer pool serializes page residency — which is what lets the VP manager
// fan a query out across partitions under read locks.
type Tree struct {
	pool   *storage.BufferPool
	root   storage.PageID
	height int // 1 = root is a leaf
	size   int // number of entries
}

// New creates an empty tree whose nodes are allocated from pool.
func New(pool *storage.BufferPool) (*Tree, error) {
	t := &Tree{pool: pool, height: 1}
	id, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	t.root = id
	if err := t.writeNode(&node{id: id, leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// --- serialization ---------------------------------------------------------

func putKey(b []byte, k Key) {
	binary.LittleEndian.PutUint64(b[0:8], k.K)
	binary.LittleEndian.PutUint64(b[8:16], uint64(k.ID))
}

func getKey(b []byte) Key {
	return Key{
		K:  binary.LittleEndian.Uint64(b[0:8]),
		ID: model.ObjectID(binary.LittleEndian.Uint64(b[8:16])),
	}
}

func putF64(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// getVec reads the two float64s at the start of b.
func getVec(b []byte) geom.Vec2 {
	return geom.Vec2{X: getF64(b[0:8]), Y: getF64(b[8:16])}
}

func encodeEntry(b []byte, e Entry) {
	putKey(b[0:16], e.Key)
	putF64(b[16:24], e.Pos.X)
	putF64(b[24:32], e.Pos.Y)
	putF64(b[32:40], e.Vel.X)
	putF64(b[40:48], e.Vel.Y)
	putF64(b[48:56], e.T)
}

func decodeEntry(b []byte) Entry {
	return Entry{
		Key: getKey(b[0:16]),
		Pos: getVec(b[16:32]),
		Vel: getVec(b[32:48]),
		T:   getF64(b[48:56]),
	}
}

// errCorrupt reports a page whose tag or count cannot be what this tree
// wrote; it unwraps to storage.ErrCorruptPage.
func errCorrupt(id storage.PageID) error {
	return fmt.Errorf("bptree: page %d has a bad tag or count: %w", id, storage.ErrCorruptPage)
}

// pageCount returns the count field of a raw page, and whether the page
// carries the wanted tag with a count that fits it (max is LeafCap or
// InternalCap). Nothing may index a page by its count before this says ok.
func pageCount(data []byte, tag byte, max int) (count int, ok bool) {
	count = int(binary.LittleEndian.Uint16(data[1:3]))
	return count, data[0] == tag && count <= max
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeNode fills n from a raw page, reusing n's slice capacity; false
// means the page is corrupt (see pageCount). It does not set n.id.
func decodeNode(n *node, data []byte) bool {
	n.leaf = data[0] == tagLeaf
	n.next = storage.NilPage
	n.entries = n.entries[:0]
	n.keys = n.keys[:0]
	n.children = n.children[:0]
	if n.leaf {
		count, ok := pageCount(data, tagLeaf, LeafCap)
		if !ok {
			return false
		}
		n.next = storage.PageID(binary.LittleEndian.Uint64(data[3:11]))
		n.entries = resize(n.entries, count)
		for i := range n.entries {
			n.entries[i] = decodeEntry(data[leafHeader+i*entrySize:])
		}
		return true
	}
	count, ok := pageCount(data, tagInternal, InternalCap)
	if !ok {
		return false
	}
	n.children = resize(n.children, count+1)
	for i := range n.children {
		n.children[i] = storage.PageID(binary.LittleEndian.Uint64(data[3+i*8:]))
	}
	n.keys = resize(n.keys, count)
	keys := data[3+(count+1)*8:]
	for i := range n.keys {
		n.keys[i] = getKey(keys[i*keySize:])
	}
	return true
}

// encodeNode is the inverse of decodeNode.
func encodeNode(data []byte, n *node) {
	if n.leaf {
		data[0] = tagLeaf
		binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.entries)))
		binary.LittleEndian.PutUint64(data[3:11], uint64(n.next))
		off := leafHeader
		for _, e := range n.entries {
			encodeEntry(data[off:off+entrySize], e)
			off += entrySize
		}
		return
	}
	data[0] = tagInternal
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.keys)))
	off := 3
	for _, c := range n.children {
		binary.LittleEndian.PutUint64(data[off:off+8], uint64(c))
		off += 8
	}
	for _, k := range n.keys {
		putKey(data[off:off+keySize], k)
		off += keySize
	}
}

// readNode decodes the page into a fresh node. Only the structural slow
// path (fixChild) and CheckInvariants use it: they hold several decoded
// nodes alive at once.
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	n := new(node)
	ok := false
	if err := t.pool.Read(id, func(data []byte) { ok = decodeNode(n, data) }); err != nil {
		return nil, err
	}
	if !ok {
		return nil, errCorrupt(id)
	}
	n.id = id
	return n, nil
}

// writeNode encodes the node onto its page.
func (t *Tree) writeNode(n *node) error {
	return t.pool.Write(n.id, func(data []byte) { encodeNode(data, n) })
}

// --- raw page search -------------------------------------------------------

// childFor returns the child of internal page id to descend into for key k
// and its slot: the first i with k < keys[i], else the last child (separator
// keys[i] is the smallest key in children[i+1]). It binary-searches the
// separators in the raw page under one pin and decodes nothing.
func (t *Tree) childFor(id storage.PageID, k Key) (child storage.PageID, ci int, err error) {
	perr := t.pool.Read(id, func(data []byte) {
		count, ok := pageCount(data, tagInternal, InternalCap)
		if !ok {
			err = errCorrupt(id)
			return
		}
		keys := data[3+(count+1)*8:]
		lo, hi := 0, count
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if k.Less(getKey(keys[mid*keySize:])) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		child, ci = storage.PageID(binary.LittleEndian.Uint64(data[3+lo*8:])), lo
	})
	if perr != nil {
		return storage.NilPage, 0, perr
	}
	return child, ci, err
}

// leafSearch returns the first slot of a raw leaf page holding count records
// whose key is >= k, and whether that slot holds exactly k.
func leafSearch(data []byte, count int, k Key) (slot int, found bool) {
	lo, hi := 0, count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if getKey(data[leafHeader+mid*entrySize:]).Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < count && getKey(data[leafHeader+lo*entrySize:]) == k
}

// childIndex is childFor's search on a decoded internal node, for
// ScanMany's path stack.
func childIndex(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if k.Less(keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// --- insert ----------------------------------------------------------------

// Insert adds an entry. Inserting an existing composite key returns an error
// wrapping model.ErrDuplicate and changes nothing (updates are delete+insert,
// per the moving-object model).
//
// Page budget: height accesses — one read pin per internal level, one write
// pin on the leaf. A full leaf (about 1 insert in 36) adds 3: its two halves'
// writes and one read-modify-write pin on the parent; each further level
// that splits adds 3 again, its halves and the next parent (or the new root).
// The leaf pin marks the frame dirty even when the insert is rejected; the
// callers above screen duplicates out against their id table, so that is an
// error path, not a cost.
func (t *Tree) Insert(e Entry) error {
	split, err := t.insertRec(t.root, t.height, e)
	if err != nil {
		return err
	}
	if split != nil {
		// Grow a new root.
		id, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       id,
			keys:     []Key{split.key},
			children: []storage.PageID{t.root, split.right},
		}
		if err := t.writeNode(newRoot); err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	t.size++
	return nil
}

// splitResult propagates a child split to the parent.
type splitResult struct {
	key   Key            // smallest key of (or separator for) the right node
	right storage.PageID // new right sibling
}

func (t *Tree) insertRec(id storage.PageID, level int, e Entry) (*splitResult, error) {
	if level == 1 {
		over, err := t.insertLeaf(id, e)
		if over == nil {
			return nil, err
		}
		return t.splitLeaf(over)
	}
	child, ci, err := t.childFor(id, e.Key)
	if err != nil {
		return nil, err
	}
	split, err := t.insertRec(child, level-1, e)
	if err != nil || split == nil {
		return nil, err
	}
	over, err := t.insertSeparator(id, ci, split)
	if over == nil {
		return nil, err
	}
	return t.splitInternal(over)
}

// insertLeaf adds e to leaf page id in place under one write pin: search the
// packed slots, shift the tail up one slot, patch the count. A leaf already
// at LeafCap is instead returned decoded with e in position (LeafCap+1
// entries) for splitLeaf, the page left as it was.
func (t *Tree) insertLeaf(id storage.PageID, e Entry) (over *node, err error) {
	perr := t.pool.Write(id, func(data []byte) {
		count, ok := pageCount(data, tagLeaf, LeafCap)
		if !ok {
			err = errCorrupt(id)
			return
		}
		i, dup := leafSearch(data, count, e.Key)
		if dup {
			err = fmt.Errorf("bptree: insert of key (%d,%d): %w", e.Key.K, e.Key.ID, model.ErrDuplicate)
			return
		}
		if count == LeafCap {
			over = &node{id: id, entries: make([]Entry, 0, LeafCap+1)}
			decodeNode(over, data)
			over.entries = slices.Insert(over.entries, i, e)
			return
		}
		off, end := leafHeader+i*entrySize, leafHeader+count*entrySize
		copy(data[off+entrySize:end+entrySize], data[off:end])
		encodeEntry(data[off:off+entrySize], e)
		binary.LittleEndian.PutUint16(data[1:3], uint16(count+1))
	})
	if perr != nil {
		return nil, perr
	}
	return over, err
}

// insertSeparator records a child split in internal page id under one write
// pin: decode, put the separator and right child in at slot ci, re-encode.
// A node pushed past InternalCap is instead returned decoded for
// splitInternal, the page left as it was.
func (t *Tree) insertSeparator(id storage.PageID, ci int, split *splitResult) (over *node, err error) {
	n := &node{id: id}
	perr := t.pool.Write(id, func(data []byte) {
		if !decodeNode(n, data) || n.leaf {
			err = errCorrupt(id)
			return
		}
		n.keys = slices.Insert(n.keys, ci, split.key)
		n.children = slices.Insert(n.children, ci+1, split.right)
		if len(n.keys) > InternalCap {
			over = n
			return
		}
		encodeNode(data, n)
	})
	if perr != nil {
		return nil, perr
	}
	return over, err
}

func (t *Tree) splitLeaf(n *node) (*splitResult, error) {
	mid := len(n.entries) / 2
	rid, err := t.pool.Allocate()
	if err != nil {
		return nil, err
	}
	right := &node{
		id:      rid,
		leaf:    true,
		entries: append([]Entry(nil), n.entries[mid:]...),
		next:    n.next,
	}
	n.entries = n.entries[:mid]
	n.next = rid
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return &splitResult{key: right.entries[0].Key, right: rid}, nil
}

func (t *Tree) splitInternal(n *node) (*splitResult, error) {
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	rid, err := t.pool.Allocate()
	if err != nil {
		return nil, err
	}
	right := &node{
		id:       rid,
		keys:     append([]Key(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return &splitResult{key: upKey, right: rid}, nil
}

// --- delete ----------------------------------------------------------------

// Delete removes the entry with the given composite key; model.ErrNotFound
// if absent.
//
// Page budget: height accesses — one read pin per internal level, one write
// pin on the leaf. A leaf that drops below half full tells its parent, which
// alone then pays for the rebalance: its own decode, the two siblings, and
// two (merge) or three (borrow) writes. A merge that leaves the parent
// underfull repeats that one level up; one that empties the root collapses
// it with no further access. As with Insert, the leaf pin marks the frame
// dirty even when the key is absent.
func (t *Tree) Delete(k Key) error {
	found, _, err := t.deleteRec(t.root, t.height, k)
	if err != nil {
		return err
	}
	if !found {
		return model.ErrNotFound
	}
	t.size--
	return nil
}

// deleteRec removes k from the subtree at id and reports whether that left
// the node at id underfull, for the parent to rebalance.
func (t *Tree) deleteRec(id storage.PageID, level int, k Key) (found, underfull bool, err error) {
	if level == 1 {
		return t.deleteLeaf(id, k)
	}
	child, ci, err := t.childFor(id, k)
	if err != nil {
		return false, false, err
	}
	found, underfull, err = t.deleteRec(child, level-1, k)
	if err != nil || !underfull {
		return found, false, err
	}
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if err := t.fixChild(n, ci, level-1); err != nil {
		return false, false, err
	}
	if id == t.root && len(n.keys) == 0 {
		// The merge left the root one child: that child is the new root.
		t.root = n.children[0]
		t.height--
		if err := t.pool.Free(id); err != nil {
			return false, false, err
		}
	}
	return true, len(n.keys) < internalMin, nil
}

// deleteLeaf removes k from leaf page id in place under one write pin:
// search the packed slots, shift the tail down one slot, patch the count.
func (t *Tree) deleteLeaf(id storage.PageID, k Key) (found, underfull bool, err error) {
	perr := t.pool.Write(id, func(data []byte) {
		count, ok := pageCount(data, tagLeaf, LeafCap)
		if !ok {
			err = errCorrupt(id)
			return
		}
		i, hit := leafSearch(data, count, k)
		if !hit {
			return
		}
		off, end := leafHeader+i*entrySize, leafHeader+count*entrySize
		copy(data[off:], data[off+entrySize:end])
		binary.LittleEndian.PutUint16(data[1:3], uint16(count-1))
		found, underfull = true, count-1 < leafMin
	})
	if perr != nil {
		return false, false, perr
	}
	return found, underfull, err
}

// fixChild rebalances the underfull n.children[ci] (at childLevel) by
// borrowing from or merging with a sibling, then rewrites n. It runs only
// for a child that reported underflow and is the only place sibling pages
// are read.
func (t *Tree) fixChild(n *node, ci, childLevel int) error {
	// Prefer the left sibling, else the right.
	var li, ri int // indexes of left/right pair to work with
	if ci > 0 {
		li, ri = ci-1, ci
	} else if ci < len(n.children)-1 {
		li, ri = ci, ci+1
	} else {
		return nil // root's only child; nothing to do
	}
	left, err := t.readNode(n.children[li])
	if err != nil {
		return err
	}
	right, err := t.readNode(n.children[ri])
	if err != nil {
		return err
	}
	if leaf := childLevel == 1; left.leaf != leaf || right.leaf != leaf {
		return errCorrupt(n.id)
	}
	sep := n.keys[li] // separator between left and right

	if left.leaf {
		if len(left.entries)+len(right.entries) <= LeafCap {
			// Merge right into left.
			left.entries = append(left.entries, right.entries...)
			left.next = right.next
			n.keys = append(n.keys[:li], n.keys[li+1:]...)
			n.children = append(n.children[:ri], n.children[ri+1:]...)
			if err := t.writeNode(left); err != nil {
				return err
			}
			if err := t.pool.Free(right.id); err != nil {
				return err
			}
			return t.writeNode(n)
		}
		// Borrow: even out the two leaves.
		all := append(left.entries, right.entries...)
		mid := len(all) / 2
		left.entries = append([]Entry(nil), all[:mid]...)
		right.entries = append([]Entry(nil), all[mid:]...)
		n.keys[li] = right.entries[0].Key
		if err := t.writeNode(left); err != nil {
			return err
		}
		if err := t.writeNode(right); err != nil {
			return err
		}
		return t.writeNode(n)
	}

	// Internal children.
	if len(left.keys)+1+len(right.keys) <= InternalCap {
		// Merge: left + sep + right.
		left.keys = append(append(left.keys, sep), right.keys...)
		left.children = append(left.children, right.children...)
		n.keys = append(n.keys[:li], n.keys[li+1:]...)
		n.children = append(n.children[:ri], n.children[ri+1:]...)
		if err := t.writeNode(left); err != nil {
			return err
		}
		if err := t.pool.Free(right.id); err != nil {
			return err
		}
		return t.writeNode(n)
	}
	// Rotate one key through the parent toward the underfull side.
	if len(left.keys) < len(right.keys) {
		// Move right's first key/child to left.
		left.keys = append(left.keys, sep)
		left.children = append(left.children, right.children[0])
		n.keys[li] = right.keys[0]
		right.keys = right.keys[1:]
		right.children = right.children[1:]
	} else {
		// Move left's last key/child to right.
		right.keys = append([]Key{sep}, right.keys...)
		right.children = append([]storage.PageID{left.children[len(left.children)-1]}, right.children...)
		n.keys[li] = left.keys[len(left.keys)-1]
		left.keys = left.keys[:len(left.keys)-1]
		left.children = left.children[:len(left.children)-1]
	}
	if err := t.writeNode(left); err != nil {
		return err
	}
	if err := t.writeNode(right); err != nil {
		return err
	}
	return t.writeNode(n)
}

// --- invariants (tests) ----------------------------------------------------

// CheckInvariants validates structural invariants: key ordering within and
// across nodes, separator correctness, fill factors, uniform leaf depth and
// the leaf chain. Used by tests; O(n).
func (t *Tree) CheckInvariants() error {
	count, _, err := t.check(t.root, t.height, nil, nil)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("bptree: size %d but found %d entries", t.size, count)
	}
	return nil
}

// check returns (entry count, leftmost leaf id) for the subtree.
func (t *Tree) check(id storage.PageID, level int, lo, hi *Key) (int, storage.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, storage.NilPage, err
	}
	inBounds := func(k Key) bool {
		if lo != nil && k.Less(*lo) {
			return false
		}
		if hi != nil && !k.Less(*hi) {
			return false
		}
		return true
	}
	if level == 1 {
		if !n.leaf {
			return 0, storage.NilPage, fmt.Errorf("bptree: non-leaf at leaf level (page %d)", id)
		}
		if id != t.root && len(n.entries) < leafMin {
			return 0, storage.NilPage, fmt.Errorf("bptree: underfull leaf %d (%d entries)", id, len(n.entries))
		}
		for i, e := range n.entries {
			if i > 0 && !n.entries[i-1].Key.Less(e.Key) {
				return 0, storage.NilPage, fmt.Errorf("bptree: leaf %d keys out of order", id)
			}
			if !inBounds(e.Key) {
				return 0, storage.NilPage, fmt.Errorf("bptree: leaf %d key out of separator bounds", id)
			}
		}
		return len(n.entries), id, nil
	}
	if n.leaf {
		return 0, storage.NilPage, fmt.Errorf("bptree: leaf at internal level (page %d)", id)
	}
	if id != t.root && len(n.keys) < internalMin {
		return 0, storage.NilPage, fmt.Errorf("bptree: underfull internal %d (%d keys)", id, len(n.keys))
	}
	for i, k := range n.keys {
		if i > 0 && !n.keys[i-1].Less(k) {
			return 0, storage.NilPage, fmt.Errorf("bptree: internal %d keys out of order", id)
		}
		if !inBounds(k) {
			return 0, storage.NilPage, fmt.Errorf("bptree: internal %d separator out of bounds", id)
		}
	}
	total := 0
	var first storage.PageID
	for i, c := range n.children {
		var clo, chi *Key
		if i == 0 {
			clo = lo
		} else {
			clo = &n.keys[i-1]
		}
		if i == len(n.keys) {
			chi = hi
		} else {
			chi = &n.keys[i]
		}
		cnt, leftmost, err := t.check(c, level-1, clo, chi)
		if err != nil {
			return 0, storage.NilPage, err
		}
		if i == 0 {
			first = leftmost
		}
		total += cnt
	}
	return total, first, nil
}
