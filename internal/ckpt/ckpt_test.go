package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
)

// goldenFull and goldenDelta are the two fixed elements whose encodings were
// captured at commit 8a49ddb (testdata/*-8a49ddb.hex), before the codec moved
// here from the root package's durability.go. Between them they exercise every
// section: analysis, objects, tombstones, and a registry with an empty and a
// non-empty membership and every RangeQuery field set.
func goldenFull() Element {
	return Element{
		Gen: 3, LSN: 4096, Partitioned: true,
		Analysis: core.Analysis{
			Kind: core.KindDVA, SampleSize: 64, TotalOutliers: 5,
			Frames: []core.Frame{
				{Axis: geom.V(1, 0), Tau: 2.5, SpeedMin: 0, SpeedMax: 40, Dominance: 0.75, Count: 40, OutlierCount: 3},
				{Axis: geom.V(0, 1), Tau: 1.25, SpeedMin: 0, SpeedMax: 35, Dominance: 0.5, Count: 19, OutlierCount: 2},
				{Axis: geom.V(1, 0), Count: 5, IsOutlier: true},
			},
		},
		Objects: []model.Object{
			{ID: 1, Pos: geom.V(100, 200), Vel: geom.V(5, -1), T: 0},
			{ID: 2, Pos: geom.V(300.5, 400.25), Vel: geom.V(0, 12), T: 1.5},
			{ID: 9, Pos: geom.V(19999, 0.125), Vel: geom.V(-30, 0), T: 2},
		},
		HasEngine: true, Clock: 2, NextID: 3,
		Subs: []Sub{
			{ID: 1, Sub: monitor.Subscription{Query: model.RangeQuery{Kind: model.TimeSlice, Rect: geom.R(0, 0, 500, 500)}, Horizon: 1000}, Members: []model.ObjectID{1, 2}},
			{ID: 2, Sub: monitor.Subscription{Query: model.RangeQuery{
				Kind: model.MovingRange, Rect: geom.R(10, 20, 30, 40), Circle: geom.Circle{C: geom.V(20, 30), R: 10},
				Vel: geom.V(1, -1), Now: 1, T0: 2, T1: 3,
			}, Horizon: 10, Window: 5}},
		},
	}
}

func goldenDelta() Element {
	return Element{
		Gen: 4, ParentGen: 3, Delta: true, LSN: 8192,
		Objects: []model.Object{
			{ID: 2, Pos: geom.V(301, 401), Vel: geom.V(1, 11), T: 3},
			{ID: 12, Pos: geom.V(7, 8), Vel: geom.V(-2, 2), T: 3},
		},
		Tombs:     []model.ObjectID{9, 44},
		HasEngine: true, Clock: 3, NextID: 3,
		Subs: []Sub{
			{ID: 1, Sub: monitor.Subscription{Query: model.RangeQuery{Kind: model.TimeSlice, Rect: geom.R(0, 0, 500, 500)}, Horizon: 1000}, Members: []model.ObjectID{1, 2, 12}},
		},
	}
}

func goldenBytes(t testing.TB, name string) []byte {
	t.Helper()
	h, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(h)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenBytes pins the on-disk format: the bytes a checkpoint written by
// the pre-move codec holds are the bytes this one writes, and they decode to
// the element that produced them.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		file string
		elem Element
	}{
		{"full-8a49ddb.hex", goldenFull()},
		{"delta-8a49ddb.hex", goldenDelta()},
	} {
		want := goldenBytes(t, tc.file)
		if got := Encode(tc.elem); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode differs from the bytes captured at 8a49ddb\n got %x\nwant %x", tc.file, got, want)
		}
		dec, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		// An empty id list decodes as empty, not nil; compare through that.
		for i := range dec.Subs {
			if len(dec.Subs[i].Members) == 0 {
				dec.Subs[i].Members = nil
			}
		}
		if !reflect.DeepEqual(dec, tc.elem) {
			t.Fatalf("%s: decoded %+v\nwant %+v", tc.file, dec, tc.elem)
		}
	}
	if binary.LittleEndian.Uint32(goldenBytes(t, "full-8a49ddb.hex")[4:]) != 2 || version != 2 {
		t.Fatal("checkpoint format version is not 2")
	}
}

// reseal recomputes the trailing CRC after a payload edit, so the hostile
// inputs below get past the checksum and reach the section decoders.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[8:len(b)-4]))
	return b
}

// countOffsets returns the byte offset of every count field in e's encoding:
// analysis length, objects, tombstones, subscriptions, each membership.
func countOffsets(e Element) []int {
	off := 8 + 3*8 + 1
	var out []int
	if e.Partitioned {
		out = append(out, off)
		off += 8 + len(core.EncodeAnalysis(e.Analysis))
	}
	out = append(out, off)
	off += 8 + len(e.Objects)*objectBytes
	if e.Delta {
		out = append(out, off)
		off += 8 + len(e.Tombs)*idBytes
	}
	if e.HasEngine {
		off += 16
		out = append(out, off)
		off += 8
		for _, cs := range e.Subs {
			off += subMinBytes - 8
			out = append(out, off)
			off += 8 + len(cs.Members)*idBytes
		}
	}
	return out
}

// hostileInputs derives, from one element, the inputs the decoder must refuse
// without panicking or over-allocating: its encoding truncated at every
// section boundary, and with each count field replaced by a value whose
// product with the element size wraps (2^63), lands just past 2^64
// (2^64/48+1), or merely overruns the payload (len+1) — CRC resealed each
// time.
func hostileInputs(e Element) [][]byte {
	enc := Encode(e)
	var out [][]byte
	for _, off := range countOffsets(e) {
		for _, cut := range []int{off, off + 8} {
			if cut == len(enc)-4 {
				continue // a trailing empty list: the cut is the whole payload
			}
			out = append(out, reseal(append(bytes.Clone(enc[:cut]), 0, 0, 0, 0)))
		}
		for _, n := range []uint64{1 << 63, ^uint64(0)/48 + 1, uint64(len(enc)) + 1} {
			b := bytes.Clone(enc)
			binary.LittleEndian.PutUint64(b[off:], n)
			out = append(out, reseal(b))
		}
	}
	return out
}

// TestDecodeHostileCounts is the regression test for the wrapped bounds check:
// `uint64(len(r)) < n*48` passes for n = 2^63, and make([]Object, n) panicked
// with a CRC-valid file.
func TestDecodeHostileCounts(t *testing.T) {
	for _, e := range []Element{goldenFull(), goldenDelta()} {
		for i, b := range hostileInputs(e) {
			if _, err := Decode(b); err == nil {
				t.Fatalf("gen %d hostile input %d decoded", e.Gen, i)
			}
		}
	}
}

// FuzzDecode: any byte string decodes to an element or an error — never a
// panic, never an allocation out of proportion to the input — and whatever
// decodes round-trips.
func FuzzDecode(f *testing.F) {
	for _, e := range []Element{goldenFull(), goldenDelta()} {
		f.Add(Encode(e))
		for _, b := range hostileInputs(e) {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The decoder's slices cost at most a few bytes per input byte (an
		// 8-byte id per 8 bytes, a 48-byte object per 48, a Sub per 129).
		const perByte, slack = 4, 64 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := Decode(b)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(perByte*len(b)+slack); got > limit {
			t.Fatalf("Decode of %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		// Decode ignores unassigned flag bits, so b itself need not be
		// canonical; the element's own encoding must be a fixed point.
		enc := Encode(e)
		if e2, err := Decode(enc); err != nil || !bytes.Equal(Encode(e2), enc) {
			t.Fatalf("decoded element does not round-trip (%v)\n in %x\nenc %x", err, b, enc)
		}
	})
}

// TestChainRules exercises ReadChain's linkage rules on real files: an empty
// directory, a full plus deltas, a stale delta (deleted), a gap, and deltas
// with no base.
func TestChainRules(t *testing.T) {
	dir := t.TempDir()
	write := func(e Element) {
		t.Helper()
		if _, err := Write(dir, e, nil); err != nil {
			t.Fatal(err)
		}
	}
	if chain, _, err := ReadChain(dir); err != nil || len(chain) != 0 {
		t.Fatalf("empty dir: %d elements, %v", len(chain), err)
	}
	full, d4 := goldenFull(), goldenDelta()
	d5 := Element{Gen: 5, ParentGen: 4, Delta: true, LSN: 9000, Tombs: []model.ObjectID{1}}
	stale := Element{Gen: 2, ParentGen: 1, Delta: true, LSN: 100}
	write(full)
	write(d4)
	write(d5)
	write(stale)
	chain, deltaBytes, err := ReadChain(dir)
	if err != nil || len(chain) != 3 {
		t.Fatalf("chain of %d, %v; want 3", len(chain), err)
	}
	if want := int64(len(Encode(d4)) + len(Encode(d5))); deltaBytes != want {
		t.Fatalf("deltaBytes = %d, want %d", deltaBytes, want)
	}
	if _, err := os.Stat(filepath.Join(dir, DeltaName(2))); !os.IsNotExist(err) {
		t.Fatal("stale delta survived ReadChain")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind")
	}

	got := Fold(chain)
	if got.Gen != 5 || got.LSN != 9000 || got.Delta || !got.Partitioned || !got.HasEngine {
		t.Fatalf("fold header = %+v", got)
	}
	var ids []model.ObjectID
	for _, o := range got.Objects {
		ids = append(ids, o.ID)
	}
	// 1: full, tombstoned by d5. 2: full, replaced by d4. 9: full, tombstoned
	// by d4. 12: new in d4. 44: tombstone for an id no element carried.
	if !reflect.DeepEqual(ids, []model.ObjectID{2, 12}) || got.Objects[0] != d4.Objects[0] {
		t.Fatalf("folded objects = %+v", got.Objects)
	}
	if !reflect.DeepEqual(got.Analysis, full.Analysis) || !reflect.DeepEqual(got.Subs, d4.Subs) || got.Clock != 3 {
		t.Fatal("fold did not carry the newest analysis and registry")
	}

	if err := os.Remove(filepath.Join(dir, DeltaName(4))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChain(dir); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("chain with a missing element: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, FullName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChain(dir); err == nil || !strings.Contains(err.Error(), "no full snapshot") {
		t.Fatalf("deltas with no base: %v", err)
	}
	RemoveDeltas(dir, 5)
	if chain, _, err := ReadChain(dir); err != nil || len(chain) != 0 {
		t.Fatalf("after RemoveDeltas: %d elements, %v", len(chain), err)
	}
}

// TestWriteSyncPoints pins the writer's three injector gates: one write gate
// and two sync points per element, in that order.
func TestWriteSyncPoints(t *testing.T) {
	for killAt, wantFile := range map[int64]bool{1: false, 2: true} {
		dir := t.TempDir()
		fi := storage.NewFaultInjector(killAt)
		if _, err := Write(dir, goldenFull(), fi); err == nil {
			t.Fatalf("killAt %d: write survived", killAt)
		}
		_, err := os.Stat(filepath.Join(dir, FullName))
		if got := err == nil; got != wantFile {
			t.Fatalf("killAt %d: file present = %v, want %v", killAt, got, wantFile)
		}
		if _, err := Write(dir, goldenFull(), fi); err == nil {
			t.Fatal("write after the kill point went through")
		}
	}
	fi := storage.NewFaultInjector(0)
	if _, err := Write(t.TempDir(), goldenDelta(), fi); err != nil || fi.SyncPoints() != 2 {
		t.Fatalf("clean write: %v, %d sync points, want 2", err, fi.SyncPoints())
	}
}
