package bptree

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/storage"
)

// ScanRange is a half-open interval [Lo, Hi) of key-space values (Key.K),
// the unit of work ScanMany batches. The Bx-tree produces one ScanRange per
// merged space-filling-curve interval of a time bucket.
type ScanRange struct {
	Lo, Hi uint64
}

// scanFrame caches one decoded internal node of the current root-to-leaf
// path. hi/hiOK is the exclusive upper bound of the node's key space
// (hiOK=false on the rightmost spine, whose bound is open); the lower bound
// needs no tracking because the scan cursor only ever moves forward, so a
// cached frame whose upper bound admits the next target is always a true
// ancestor of the target's leaf.
type scanFrame struct {
	id       storage.PageID
	keys     []Key
	children []storage.PageID
	hi       Key
	hiOK     bool
}

// batchScanner carries the reusable state of one scan: the decoded path
// stack and the per-leaf result scratch. Scanners are pooled across calls
// and trees, so the steady-state scan allocates nothing; what a pooled
// scanner remembers of its last path is stale by definition (see reset).
type batchScanner struct {
	t       *Tree
	frames  []scanFrame // frames[0] = root; len = height-1 (internal levels)
	scratch []Entry     // entries kept on the current leaf page
}

var scanners = sync.Pool{New: func() any { return new(batchScanner) }}

// reset points a pooled scanner at t with an empty path: the tree it last
// walked may have been another one, or have split, merged or changed height
// since, so only the frames' slice capacity survives, never a cached page.
func (s *batchScanner) reset(t *Tree) {
	s.t = t
	s.frames = resize(s.frames, t.height-1)
	for i := range s.frames {
		s.frames[i].id = storage.NilPage
	}
}

// readFrame decodes the internal page id into f, reusing f's slice capacity.
func (s *batchScanner) readFrame(f *scanFrame, id storage.PageID) error {
	ok := false
	err := s.t.pool.Read(id, func(data []byte) {
		count := int(binary.LittleEndian.Uint16(data[1:3]))
		if data[0] != tagInternal || count > InternalCap {
			return
		}
		ok = true
		if cap(f.children) < count+1 {
			f.children = make([]storage.PageID, count+1)
		} else {
			f.children = f.children[:count+1]
		}
		off := 3
		for i := 0; i <= count; i++ {
			f.children[i] = storage.PageID(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
		}
		if cap(f.keys) < count {
			f.keys = make([]Key, count)
		} else {
			f.keys = f.keys[:count]
		}
		for i := 0; i < count; i++ {
			f.keys[i] = getKey(data[off : off+keySize])
			off += keySize
		}
	})
	if err != nil {
		return err
	}
	if !ok {
		return errCorrupt(id)
	}
	f.id = id
	return nil
}

// seek descends to the leaf owning target's key space, starting from the
// deepest cached ancestor whose subtree still contains target rather than
// from the root: shared path prefixes cost no page accesses on a re-seek,
// so jumping to the next interval of a batch touches only the nodes that
// actually differ. It returns the leaf page id and the exclusive upper
// bound of the leaf's key space (boundOK=false for the rightmost leaf).
// Targets must be non-decreasing across the seeks of one batchScanner.
func (s *batchScanner) seek(target Key) (leaf storage.PageID, bound Key, boundOK bool, err error) {
	t := s.t
	if len(s.frames) == 0 {
		return t.root, Key{}, false, nil
	}
	if s.frames[0].id != t.root {
		if err := s.readFrame(&s.frames[0], t.root); err != nil {
			return storage.NilPage, Key{}, false, err
		}
		s.frames[0].hiOK = false
	}
	// Deepest cached frame still containing target.
	start := 0
	for start+1 < len(s.frames) {
		f := &s.frames[start+1]
		if f.id == storage.NilPage || (f.hiOK && !target.Less(f.hi)) {
			break
		}
		start++
	}
	for level := start; ; level++ {
		f := &s.frames[level]
		ci := childIndex(f.keys, target)
		child := f.children[ci]
		childHi, childHiOK := f.hi, f.hiOK
		if ci < len(f.keys) {
			childHi, childHiOK = f.keys[ci], true
		}
		if level+1 == len(s.frames) {
			return child, childHi, childHiOK, nil
		}
		next := &s.frames[level+1]
		if next.id != child {
			if err := s.readFrame(next, child); err != nil {
				return storage.NilPage, Key{}, false, err
			}
		}
		next.hi, next.hiOK = childHi, childHiOK
	}
}

// ScanMany visits every entry whose Key.K lies in the union of ranges, in
// key order, exactly once — the batched equivalent of one Scan call per
// range. ranges must be sorted by Lo (overlapping or touching ranges are
// fine: the union is scanned once); unsorted input is rejected. visit
// returning false stops the whole batch. visit receives each entry by value
// and may retain it.
//
// Unlike a loop of Scan calls — one full root-to-leaf descent per range —
// ScanMany descends once and then walks the leaf sibling chain, re-seeking
// through a cached stack of the internal path only when the next range
// jumps past the current leaf, and then touching only the path nodes that
// differ. Leaf pages are filtered against the raw page bytes inside the
// buffer-pool read: entry keys are compared in place and only entries
// inside a range are decoded, so a leaf that merely bridges two ranges
// costs one page access and no decoding.
func (t *Tree) ScanMany(ranges []ScanRange, visit func(Entry) bool) error {
	return t.ScanFiltered(ranges, nil, visit)
}

// ScanFiltered is ScanMany restricted to the entries keep accepts (nil keeps
// all). keep is handed an entry's position, velocity and reference time, read
// in place from its slot on the pinned leaf, and only the entries it keeps are
// decoded, so a filter never pays for the ones it drops. It runs under the
// pin, so it must be a pure function of its arguments — no pool access, no
// locks (the pool's "no pin across a pool access" rule); visit runs after the
// unpin, as in ScanMany, and may do anything.
func (t *Tree) ScanFiltered(ranges []ScanRange, keep func(pos, vel geom.Vec2, ref float64) bool, visit func(Entry) bool) error {
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo < ranges[i-1].Lo {
			return fmt.Errorf("bptree: ScanMany ranges not sorted by Lo at index %d", i)
		}
	}
	ri := 0
	for ri < len(ranges) && ranges[ri].Hi <= ranges[ri].Lo {
		ri++
	}
	if ri == len(ranges) {
		return nil
	}

	s := scanners.Get().(*batchScanner)
	defer func() {
		s.t = nil
		scanners.Put(s)
	}()
	s.reset(t)
	leaf, _, _, err := s.seek(Key{K: ranges[ri].Lo})
	if err != nil {
		return err
	}
	for {
		var (
			next    storage.PageID
			lastK   uint64
			count   int
			badLeaf bool
			done    bool
		)
		s.scratch = s.scratch[:0]
		err := t.pool.Read(leaf, func(data []byte) {
			if data[0] != tagLeaf {
				badLeaf = true
				return
			}
			count = int(binary.LittleEndian.Uint16(data[1:3]))
			if count > LeafCap {
				badLeaf = true
				return
			}
			next = storage.PageID(binary.LittleEndian.Uint64(data[3:11]))
			if count == 0 {
				return
			}
			lastK = binary.LittleEndian.Uint64(data[leafHeader+(count-1)*entrySize:])
			// First slot with K >= the pending range's Lo, against raw bytes.
			r := ranges[ri]
			lo, hi := 0, count
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if binary.LittleEndian.Uint64(data[leafHeader+mid*entrySize:]) < r.Lo {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			for i := lo; i < count; i++ {
				slot := data[leafHeader+i*entrySize:][:entrySize]
				k := binary.LittleEndian.Uint64(slot)
				for k >= r.Hi {
					ri++
					if ri == len(ranges) {
						done = true
						return
					}
					r = ranges[ri]
				}
				if k >= r.Lo && (keep == nil || keep(getVec(slot[16:]), getVec(slot[32:]), getF64(slot[48:]))) {
					s.scratch = append(s.scratch, decodeEntry(slot))
				}
			}
		})
		if err != nil {
			return err
		}
		if badLeaf {
			return errCorrupt(leaf)
		}
		for _, e := range s.scratch {
			if !visit(e) {
				return nil
			}
		}
		if done || ri == len(ranges) {
			return nil
		}
		if count > 0 && ranges[ri].Lo <= lastK {
			// Mid-range: the pending range has keys at or before this leaf's
			// last entry, so its remainder (if any) continues on the sibling
			// chain — no re-seek, one next-pointer hop.
			if next == storage.NilPage {
				return nil
			}
			leaf = next
			continue
		}
		// The pending range starts past this leaf's last entry: re-seek
		// through the path stack.
		target := Key{K: ranges[ri].Lo}
		nleaf, bound, boundOK, err := s.seek(target)
		if err != nil {
			return err
		}
		if nleaf != leaf {
			leaf = nleaf
			continue
		}
		// The target maps back into this exhausted leaf: the key space
		// [target, bound) is provably empty. Ranges that end at or below the
		// bound are done; one reaching to or past it continues on the sibling
		// chain (entries at K == bound.K may straddle the separator's ID
		// component); one starting strictly past it needs a fresh seek, which
		// is then guaranteed to land on a later leaf.
		if !boundOK {
			return nil // rightmost leaf: nothing beyond the last entry
		}
		for ri < len(ranges) && ranges[ri].Hi <= bound.K {
			ri++
		}
		if ri == len(ranges) {
			return nil
		}
		if ranges[ri].Lo <= bound.K {
			if next == storage.NilPage {
				return nil
			}
			leaf = next
			continue
		}
		leaf, _, _, err = s.seek(Key{K: ranges[ri].Lo})
		if err != nil {
			return err
		}
	}
}
