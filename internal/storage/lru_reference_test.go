package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refStripe is the reference model of one pool stripe: its resident pages
// ordered by last access (least recent at the front of order) and which of
// them are dirty. at finds a resident page's element in O(1); it is indexed
// by page id, which the store numbers densely from 1, reusing freed ids.
type refStripe struct {
	capacity int
	order    *list.List
	at       []*list.Element
	dirty    map[PageID]bool
}

// refPool is a plain exact-LRU buffer over the same stripe assignment as the
// pool it shadows, counting the misses, hits and write-backs the pool must
// report.
type refPool struct {
	stripes              map[*poolStripe]*refStripe
	misses, hits, writes int64
}

func newRefPool(p *BufferPool) *refPool {
	r := &refPool{stripes: make(map[*poolStripe]*refStripe)}
	for i := range p.stripes {
		s := &p.stripes[i]
		r.stripes[s] = &refStripe{capacity: s.capacity, order: list.New(), dirty: make(map[PageID]bool)}
	}
	return r
}

// elem returns id's element in order, or nil if id is not resident.
func (s *refStripe) elem(id PageID) *list.Element {
	if int(id) < len(s.at) {
		return s.at[id]
	}
	return nil
}

// push makes id the most recently used page.
func (s *refStripe) push(id PageID) {
	for int(id) >= len(s.at) {
		s.at = append(s.at, nil)
	}
	s.at[id] = s.order.PushBack(id)
}

func (s *refStripe) drop(id PageID) bool {
	e := s.elem(id)
	if e == nil {
		return false
	}
	s.order.Remove(e)
	s.at[id] = nil
	delete(s.dirty, id)
	return true
}

// pages returns the stripe's resident pages, least recently used first.
func (s *refStripe) pages() []PageID {
	var out []PageID
	for e := s.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(PageID))
	}
	return out
}

// makeRoom evicts the least recently used page when the stripe is full.
func (r *refPool) makeRoom(s *refStripe) {
	if s.order.Len() < s.capacity {
		return
	}
	victim := s.order.Front().Value.(PageID)
	if s.dirty[victim] {
		r.writes++
	}
	s.drop(victim)
}

// access is a Read, Write or Update of id: a hit moves it to the most
// recent end, a miss makes room and loads it clean.
func (r *refPool) access(s *refStripe, id PageID, dirty bool) {
	if e := s.elem(id); e != nil {
		s.order.MoveToBack(e)
		r.hits++
	} else {
		r.makeRoom(s)
		r.misses++
		s.push(id)
	}
	if dirty {
		s.dirty[id] = true
	}
}

func (r *refPool) allocate(s *refStripe, id PageID) {
	r.makeRoom(s)
	s.push(id)
	s.dirty[id] = true
}

// TestPoolVictimsMatchReferenceLRU drives seeded single-threaded histories of
// Allocate/Read/Write/Update/Free through pools of 1 to 8 stripes and, after
// every operation, compares the pool's misses, hits and write-backs, every
// stripe's size and the touched stripe's resident set with refPool, a
// per-stripe list ordered by last access; every stripe's resident set is
// compared every 64 operations and at the end. Each page carries a marker of its last write, checked on every
// read, so a frame reused with stale bytes fails too. Every history runs on
// both paths: over a bare MemStore and over a wrapper that hides it.
func TestPoolVictimsMatchReferenceLRU(t *testing.T) {
	for _, capacity := range []int{2, 17, 32, 68, 340, 4096} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("frames=%d/seed=%d", capacity, seed), func(t *testing.T) {
				for _, path := range poolPaths {
					t.Run(path.name, func(t *testing.T) {
						runReferenceLRUHistory(t, path.store(NewMemStore()), capacity, seed)
					})
				}
			})
		}
	}
}

func runReferenceLRUHistory(t *testing.T, d PageStore, capacity int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := NewBufferPool(d, capacity)
	ref := newRefPool(p)
	marker := make(map[PageID]byte) // each live page's expected data[0] and data[PageSize-1]
	var live []PageID
	// The history first allocates up to the capacity, then lets the live set
	// wander around twice the capacity, so every stripe evicts; accesses
	// favour the most recently allocated pages, so hits and misses both occur.
	target := 2*capacity + 3
	ops := 3000 + 3*capacity
	for op := 0; op < ops; op++ {
		var touched PageID
		kind := rng.Intn(100)
		switch {
		case len(live) < capacity || (kind < 15 && len(live) < target) || (kind < 4 && len(live) >= target):
			id, err := p.Allocate()
			if err != nil {
				t.Fatalf("op %d: Allocate: %v", op, err)
			}
			ref.allocate(ref.stripes[p.stripeFor(id)], id)
			live = append(live, id)
			marker[id] = 0
			touched = id
		case kind < 20:
			i := rng.Intn(len(live))
			id := live[i]
			if err := p.Free(id); err != nil {
				t.Fatalf("op %d: Free(%d): %v", op, id, err)
			}
			ref.stripes[p.stripeFor(id)].drop(id)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(marker, id)
			touched = id
		default:
			var id PageID
			if rng.Intn(3) > 0 {
				id = live[max(0, len(live)-1-rng.Intn(capacity/2+1))]
			} else {
				id = live[rng.Intn(len(live))]
			}
			want, next := marker[id], byte(op%251+1)
			check := func(data []byte) {
				if data[0] != want || data[PageSize-1] != want {
					t.Fatalf("op %d: page %d reads %d..%d, want %d", op, id, data[0], data[PageSize-1], want)
				}
			}
			s := ref.stripes[p.stripeFor(id)]
			var err error
			switch mode := kind % 4; mode {
			case 0, 1:
				err = p.Read(id, check)
				ref.access(s, id, false)
			case 2:
				err = p.Write(id, func(data []byte) {
					check(data)
					data[0], data[PageSize-1] = next, next
				})
				marker[id] = next
				ref.access(s, id, true)
			case 3:
				modified := rng.Intn(2) == 0
				err = p.Update(id, func(data []byte) bool {
					check(data)
					if modified {
						data[0], data[PageSize-1] = next, next
					}
					return modified
				})
				if modified {
					marker[id] = next
				}
				ref.access(s, id, modified)
			}
			if err != nil {
				t.Fatalf("op %d: access of page %d: %v", op, id, err)
			}
			touched = id
		}
		compareWithReference(t, p, ref, op, touched, op%64 == 0)
		if op%64 == 0 {
			checkFrameTables(t, p)
		}
	}
	compareWithReference(t, p, ref, ops, 0, true)
	checkFrameTables(t, p)
	if ref.misses == 0 || ref.writes == 0 {
		t.Fatalf("history never evicted (%d misses, %d write-backs): it does not test the victims", ref.misses, ref.writes)
	}
	t.Logf("%d ops: %d misses, %d hits, %d write-backs", ops, ref.misses, ref.hits, ref.writes)
}

// compareWithReference checks the pool's counters and every stripe's size
// against the model, and the resident set of the touched page's stripe — a
// single-threaded operation changes no other — or, with all, of every stripe.
// Sizes being equal, a set is checked by walking the stripe's dense slot
// table for a page the reference does not hold.
func compareWithReference(t *testing.T, p *BufferPool, ref *refPool, op int, touched PageID, all bool) {
	t.Helper()
	if s := p.Stats(); s.Misses != ref.misses || s.Hits != ref.hits || s.Writes != ref.writes {
		t.Fatalf("op %d (page %d): stats %+v, reference misses %d hits %d writes %d", op, touched, s, ref.misses, ref.hits, ref.writes)
	}
	home := p.stripeFor(touched)
	for i := range p.stripes {
		s := &p.stripes[i]
		rs := ref.stripes[s]
		if len(s.frames) != rs.order.Len() {
			t.Fatalf("op %d (page %d): stripe %d holds %d pages, reference %d", op, touched, i, len(s.frames), rs.order.Len())
		}
		if !all && s != home {
			continue
		}
		for j := range s.table {
			if id := s.table[j].id; id != NilPage {
				if rs.elem(id) == nil {
					t.Fatalf("op %d (page %d): stripe %d holds page %d, which the reference evicted (reference LRU order %v)", op, touched, i, id, rs.pages())
				}
			}
		}
	}
}
