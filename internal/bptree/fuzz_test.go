package bptree

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// FuzzTreeOps decodes a byte string into tree operations and runs them
// against a sorted-slice model. Each operation is four bytes — opcode, two
// key bytes, an argument — and the opcodes cover single insert/delete/get, a
// single-range ScanMany checked against the model, the same scan through
// ScanFiltered under an arbitrary predicate of the slot's position, velocity
// and time (each entry carries its key in Pos and its insert step in Vel.X
// and T, and the predicate reads all four), and runs of up to 255 consecutive
// inserts or deletes, so a few hundred bytes reach height 3 and drain it
// again. The pool is smaller than a leaf split's working set, so
// every page also round-trips through eviction.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0}) // insert, duplicate, delete, miss, get
	var grow, drain []byte
	for i := 0; i < 40; i++ { // 40 runs of 255 keys: height 3
		grow = append(grow, 4, byte(i), 0, 255)
		drain = append(drain, 5, byte(39-i), 0, 255)
	}
	f.Add(grow)
	f.Add(append(append(grow, 3, 0, 0, 0, 6, 10, 0, 200, 7, 10, 0, 203), drain...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		tr, err := New(storage.NewBufferPool(storage.NewMemStore(), 4))
		if err != nil {
			t.Fatal(err)
		}
		var want []Entry // sorted by key
		find := func(k Key) (int, bool) {
			return slices.BinarySearchFunc(want, k, func(e Entry, k Key) int {
				switch {
				case e.Key.Less(k):
					return -1
				case k.Less(e.Key):
					return 1
				}
				return 0
			})
		}
		insert := func(k Key, step int) {
			e := Entry{Key: k, Pos: geom.V(float64(k.K), float64(k.ID)), Vel: geom.V(float64(step), 0), T: float64(step)}
			i, present := find(k)
			err := tr.Insert(e)
			if present != errors.Is(err, model.ErrDuplicate) || (!present && err != nil) {
				t.Fatalf("op %d: Insert(%v): present=%v err=%v", step, k, present, err)
			}
			if !present {
				want = slices.Insert(want, i, e)
			}
		}
		remove := func(k Key, step int) {
			i, present := find(k)
			err := tr.Delete(k)
			if present != (err == nil) || (!present && err != model.ErrNotFound) {
				t.Fatalf("op %d: Delete(%v): present=%v err=%v", step, k, present, err)
			}
			if present {
				want = slices.Delete(want, i, i+1)
			}
		}
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			k := Key{K: uint64(ops[1])<<8 | uint64(ops[2]), ID: model.ObjectID(ops[3] % 3)}
			switch ops[0] % 8 {
			case 0, 1:
				insert(k, step)
			case 2:
				remove(k, step)
			case 3:
				got, ok, err := tr.Get(k)
				i, present := find(k)
				if err != nil || ok != present || (ok && got != want[i]) {
					t.Fatalf("op %d: Get(%v) = %+v, %v, %v; model present=%v", step, k, got, ok, err, present)
				}
			case 4:
				for i := uint64(0); i < uint64(ops[3]); i++ {
					insert(Key{K: k.K + i, ID: 7}, step)
				}
			case 5:
				for i := uint64(0); i < uint64(ops[3]); i++ {
					remove(Key{K: k.K + i, ID: 7}, step)
				}
			case 6, 7:
				lo, hi := k.K, k.K+uint64(ops[3])*8
				first, _ := find(Key{K: lo})
				last, _ := find(Key{K: hi})
				// Opcode 6 keeps everything (ScanMany: a nil filter), 7 what an
				// arbitrary predicate of the slot's scalars keeps.
				var keep func(pos, vel geom.Vec2, ref float64) bool
				expect := want[first:last]
				if mod := uint64(ops[3]%5 + 2); ops[0]%8 == 7 {
					keep = func(pos, vel geom.Vec2, ref float64) bool {
						return (uint64(pos.X)+uint64(pos.Y)+uint64(vel.X)*uint64(ref+1))%mod != 0
					}
					expect = nil
					for _, e := range want[first:last] {
						if keep(e.Pos, e.Vel, e.T) {
							expect = append(expect, e)
						}
					}
				}
				var scan, many []Entry
				if err := scanRange(tr, lo, hi, func(e Entry) bool {
					if keep == nil || keep(e.Pos, e.Vel, e.T) {
						scan = append(scan, e)
					}
					return true
				}); err != nil {
					t.Fatalf("op %d: ScanMany: %v", step, err)
				}
				if err := tr.ScanFiltered([]ScanRange{{Lo: lo, Hi: hi}}, keep, func(e Entry) bool { many = append(many, e); return true }); err != nil {
					t.Fatalf("op %d: ScanFiltered: %v", step, err)
				}
				if !slices.Equal(scan, expect) || !slices.Equal(many, expect) {
					t.Fatalf("op %d: [%d,%d): ScanMany %d entries, ScanFiltered %d, model %d", step, lo, hi, len(scan), len(many), len(expect))
				}
			}
			if tr.Len() != len(want) {
				t.Fatalf("op %d: Len %d, model %d", step, tr.Len(), len(want))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if all := scanAll(t, tr); !slices.Equal(all, want) {
			t.Fatalf("final scan: %d entries, model %d", len(all), len(want))
		}
	})
}
