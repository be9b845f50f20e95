package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
)

func appendRecord(t *testing.T, w *WAL, typ Type, payload []byte) uint64 {
	t.Helper()
	lsn, err := w.Append(typ, payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func collect(t *testing.T, w *WAL, from uint64) (types []Type, payloads [][]byte, lsns []uint64) {
	t.Helper()
	err := w.Replay(from, func(lsn uint64, typ Type, p []byte) error {
		types = append(types, typ)
		payloads = append(payloads, append([]byte(nil), p...))
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return types, payloads, lsns
}

func TestAppendCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var lsns []uint64
	for i := 0; i < 100; i++ {
		p := []byte{byte(i), byte(i >> 1), byte(i % 7)}
		want = append(want, p)
		lsns = append(lsns, appendRecord(t, w, TypeReport, p))
	}
	if err := w.Commit(lsns[len(lsns)-1]); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := w.DurableLSN(); got != w.AppendedLSN() {
		t.Fatalf("durable %d != appended %d after Commit", got, w.AppendedLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	types, payloads, gotLSNs := collect(t, w2, 0)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if types[i] != TypeReport {
			t.Fatalf("record %d type %d", i, types[i])
		}
		if string(payloads[i]) != string(want[i]) {
			t.Fatalf("record %d payload %v, want %v", i, payloads[i], want[i])
		}
		if gotLSNs[i] != lsns[i] {
			t.Fatalf("record %d lsn %d, want %d", i, gotLSNs[i], lsns[i])
		}
	}
	// Replay from a mid-log LSN yields exactly the records after it.
	_, tail, _ := collect(t, w2, lsns[49])
	if len(tail) != 50 {
		t.Fatalf("tail replay from lsn[49] yielded %d records, want 50", len(tail))
	}
	if string(tail[0]) != string(want[50]) {
		t.Fatalf("tail starts with %v, want %v", tail[0], want[50])
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	var lsns []uint64
	for i := 0; i < 40; i++ {
		lsns = append(lsns, appendRecord(t, w, TypeRemove, payload))
	}
	if w.Segments() < 3 {
		t.Fatalf("expected >= 3 segments after 40 x 73-byte frames at 256B rotation, got %d", w.Segments())
	}
	if err := w.Commit(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	before := w.Segments()
	if err := w.TruncateBefore(lsns[20]); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	if w.Segments() >= before {
		t.Fatalf("truncation reclaimed nothing: %d -> %d segments", before, w.Segments())
	}
	// Everything at or after the truncation point must still replay.
	_, payloads, _ := collect(t, w, lsns[20])
	if len(payloads) != 19 {
		t.Fatalf("replayed %d records after truncation, want 19", len(payloads))
	}
	// The active segment is never removed, even if fully covered.
	if err := w.TruncateBefore(w.AppendedLSN() + 1000); err != nil {
		t.Fatal(err)
	}
	if w.Segments() < 1 {
		t.Fatal("active segment was reclaimed")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, TypeReport, []byte("alpha"))
	last := appendRecord(t, w, TypeReport, []byte("beta"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Corrupt the tail: truncate the segment mid-frame of the last record.
	seg := segmentPath(dir, 0)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, payloads, _ := collect(t, w2, 0)
	if len(payloads) != 1 || string(payloads[0]) != "alpha" {
		t.Fatalf("torn tail replay gave %d records %q, want just alpha", len(payloads), payloads)
	}
	// New appends land after the valid prefix and replay cleanly.
	if lsn := appendRecord(t, w2, TypeReport, []byte("gamma")); lsn <= last-uint64(len("beta")) {
		t.Fatalf("new append lsn %d not past the valid prefix", lsn)
	}
	_, payloads, _ = collect(t, w2, 0)
	if len(payloads) != 2 || string(payloads[1]) != "gamma" {
		t.Fatalf("post-repair replay gave %q", payloads)
	}
}

func TestCorruptMiddleStopsSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, TypeReport, []byte("aaaa"))
	appendRecord(t, w, TypeReport, []byte("bbbb"))
	appendRecord(t, w, TypeReport, []byte("cccc"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload byte of the middle record: CRC fails there and replay
	// of the segment stops, keeping only the prefix.
	seg := segmentPath(dir, 0)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+4+frameHeader] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, payloads, _ := collect(t, w2, 0)
	if len(payloads) != 1 || string(payloads[0]) != "aaaa" {
		t.Fatalf("corrupt-middle replay gave %q, want just aaaa", payloads)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: GroupCommit(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := w.Append(TypeReport, []byte("payload"))
				if err != nil {
					errs <- err
					return
				}
				if err := w.Commit(lsn); err != nil {
					errs <- err
					return
				}
				if w.DurableLSN() < lsn {
					errs <- errors.New("Commit returned before record durable")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, payloads, _ := collect(t, w, 0)
	if len(payloads) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(payloads), writers*each)
	}
}

func TestSyncNoneCommitDoesNotFsync(t *testing.T) {
	dir := t.TempDir()
	fi := storage.NewFaultInjector(1) // the very first sync point kills
	w, err := Open(dir, Options{Policy: None(), Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn := appendRecord(t, w, TypeReport, []byte("x"))
	// Under SyncNone, Commit must not reach a sync point (the injector
	// would kill it).
	if err := w.Commit(lsn); err != nil {
		t.Fatalf("SyncNone Commit: %v", err)
	}
	if fi.SyncPoints() != 0 {
		t.Fatalf("SyncNone Commit hit %d sync points", fi.SyncPoints())
	}
}

func TestInjectedCrashPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fi := storage.NewFaultInjector(2)
	w, err := Open(dir, Options{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn := appendRecord(t, w, TypeReport, []byte("one"))
	if err := w.Commit(lsn); err != nil {
		t.Fatalf("first commit should survive: %v", err)
	}
	lsn2, err := w.Append(TypeReport, []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn2); !errors.Is(err, storage.ErrInjectedCrash) {
		t.Fatalf("second commit error = %v, want ErrInjectedCrash", err)
	}
	// After the kill, appends are refused too.
	if _, err := w.Append(TypeReport, []byte("three")); !errors.Is(err, storage.ErrInjectedCrash) {
		t.Fatalf("post-crash append error = %v, want ErrInjectedCrash", err)
	}
}

func TestTruncateBeforeKeepsLastSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendRecord(t, w, TypeReport, make([]byte, 60))
	}
	if err := w.TruncateBefore(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	if got := w.Segments(); got != 1 {
		t.Fatalf("segments after full truncation = %d, want 1 (the active one)", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopen after truncation continues from the same LSN space.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) == 0 {
		t.Fatal("no segment files after reopen")
	}
}

func TestRecordCodecsRoundTrip(t *testing.T) {
	o := model.Object{ID: 42, Pos: geom.Vec2{X: 1.5, Y: -2.25}, Vel: geom.Vec2{X: 0.125, Y: 9}, T: 77.5}
	if got, err := DecodeReport(AppendObject(nil, o)); err != nil || got != o {
		t.Fatalf("report round trip: %+v, %v", got, err)
	}
	batch := []model.Object{o, {ID: 7, T: 1}, {ID: 9, Pos: geom.Vec2{X: 3, Y: 4}}}
	got, err := DecodeReportBatch(EncodeReportBatch(batch))
	if err != nil || len(got) != len(batch) {
		t.Fatalf("batch round trip: %d records, %v", len(got), err)
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], batch[i])
		}
	}
	if id, err := DecodeRemove(AppendRemove(nil, 99)); err != nil || id != 99 {
		t.Fatalf("remove round trip: %d, %v", id, err)
	}
	sub := monitor.Subscription{
		Query: model.RangeQuery{
			Kind: model.TimeSlice,
			Rect: geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4},
			Now:  10, T0: 10, T1: 12,
		},
		Horizon: 30,
		Window:  5,
	}
	id, gotSub, now, err := DecodeSubscribe(AppendSubscribe(nil, 17, sub, 123.5))
	if err != nil || id != 17 || now != 123.5 || gotSub != sub {
		t.Fatalf("subscribe round trip: id=%d now=%v err=%v sub=%+v", id, now, err, gotSub)
	}
	if id, err := DecodeUnsubscribe(AppendUnsubscribe(nil, 17)); err != nil || id != 17 {
		t.Fatalf("unsubscribe round trip: %d, %v", id, err)
	}
	if now, err := DecodeRefresh(AppendRefresh(nil, 55.25)); err != nil || now != 55.25 {
		t.Fatalf("refresh round trip: %v, %v", now, err)
	}
	// Truncated and trailing-byte payloads must error, not misdecode.
	if _, err := DecodeReport([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated report decoded")
	}
	if _, err := DecodeReport(append(AppendObject(nil, o), 0)); err == nil {
		t.Fatal("oversized report decoded")
	}
	if _, err := DecodeReportBatch(EncodeReportBatch(batch)[:20]); err == nil {
		t.Fatal("truncated batch decoded")
	}
}

func TestMidLogCorruptionInEarlierSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 48)
	for i := 0; i < 12; i++ {
		payload[0] = byte(i)
		appendRecord(t, w, TypeReport, payload)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", w.Segments())
	}
	w.Close()

	// Corrupt a record in the FIRST segment — a segment with successors, so
	// every byte of it was acknowledged. Replay must not silently stop: it
	// reports a CorruptError wrapping ErrCorrupt.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeader+10] ^= 0xFF
	if err := os.WriteFile(segs[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	replayErr := w2.Replay(0, func(uint64, Type, []byte) error { return nil })
	if !errors.Is(replayErr, ErrCorrupt) {
		t.Fatalf("replay over corrupt sealed segment = %v, want ErrCorrupt", replayErr)
	}
	var ce *CorruptError
	if !errors.As(replayErr, &ce) || ce.LSN != 0 {
		t.Fatalf("corrupt error %v does not point at frame 0", replayErr)
	}
	// Verify (the scrubber's primitive) finds the same corruption without a
	// full replay.
	if err := w2.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt", err)
	}
}

func TestCorruptTailDistinguishedFromTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, w, TypeReport, []byte("one"))
	appendRecord(t, w, TypeReport, []byte("two"))
	appendRecord(t, w, TypeReport, []byte("three"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Case 1: a benign torn tail — the last record is cut short. No valid
	// frame can follow a partial write, so CorruptTail is nil.
	seg := segmentPath(dir, 0)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.CorruptTail(); err != nil {
		t.Fatalf("torn tail classified as corruption: %v", err)
	}
	w2.Close()

	// Case 2: the MIDDLE record's payload is flipped while the final record
	// is intact — valid frames exist past the bad one, so this is mid-log
	// corruption of acknowledged data. Open still succeeds with the prefix,
	// but CorruptTail reports it.
	b := append([]byte(nil), orig...)
	b[frameHeader+3+frameHeader] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove the replacement active segment Open created in case 1 so the
	// only segment is the corrupted one.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.start != 0 {
			os.Remove(s.path)
		}
	}
	w3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if err := w3.CorruptTail(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CorruptTail = %v, want ErrCorrupt", err)
	}
	// The valid prefix still replays (no error: the corrupted segment's
	// expected end is exactly the prefix the reopened log continues from).
	_, payloads, _ := collect(t, w3, 0)
	if len(payloads) != 1 || string(payloads[0]) != "one" {
		t.Fatalf("prefix replay gave %q, want just one", payloads)
	}
}

// appendFrame frames one record the way Append does, written out here from
// the layout so the fuzz target below checks the decoder against it.
func appendFrame(dst []byte, t Type, payload []byte) []byte {
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, []byte{byte(t)}), crc32.IEEETable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// FuzzSegmentScan feeds the segment scanners arbitrary images: no panic, a
// valid prefix that is whole frames which re-frame to exactly its bytes and
// that no further frame extends, and a resync point, when one is reported,
// at a CRC-valid frame of a known type past the prefix. Seeds: a real
// segment, cut at each frame boundary, and with one bit of each frame
// flipped.
func FuzzSegmentScan(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	o := model.Object{ID: 42, Pos: geom.V(1.5, -2.25), Vel: geom.V(0.125, 9), T: 77.5}
	records := []struct {
		t Type
		p []byte
	}{
		{TypeReport, AppendObject(nil, o)},
		{TypeRemove, AppendRemove(nil, 99)},
		{TypeReportBatch, EncodeReportBatch([]model.Object{o, {ID: 7, T: 1}})},
		{TypeUnsubscribe, AppendUnsubscribe(nil, 17)},
		{TypeRefresh, AppendRefresh(nil, 55.25)},
	}
	for _, r := range records {
		if _, err := w.Append(r.t, r.p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	f.Add(seg)
	at := 0
	for _, r := range records {
		f.Add(seg[:at])
		flipped := bytes.Clone(seg)
		flipped[at+frameHeader+len(r.p)/2] ^= 0x10
		f.Add(flipped)
		at += frameHeader + len(r.p)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		valid := int(validPrefix(data))
		if valid > len(data) {
			t.Fatalf("valid prefix %d past the %d-byte image", valid, len(data))
		}
		var reframed []byte
		for pos := 0; pos < valid; {
			typ, payload, ok := frameAt(data, pos)
			if !ok {
				t.Fatalf("no frame at %d inside the valid prefix %d", pos, valid)
			}
			reframed = appendFrame(reframed, typ, payload)
			pos += frameHeader + len(payload)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatalf("re-framed prefix differs from the image's first %d bytes", valid)
		}
		if _, _, ok := frameAt(data, valid); ok {
			t.Fatalf("a whole frame follows the valid prefix at %d", valid)
		}
		if off := resyncAt(data, valid); off >= 0 {
			typ, _, ok := frameAt(data, off)
			if off <= valid || !ok || typ < TypeReport || typ > TypeRefresh {
				t.Fatalf("resync at %d (valid prefix %d) is not a known frame past the prefix", off, valid)
			}
		}
	})
}

// TestWALOneShotFaultReachesCaller pins that a failed fsync is not retried:
// a fault scripted for the first fsync only is the error Commit returns.
func TestWALOneShotFaultReachesCaller(t *testing.T) {
	fi := storage.NewScriptedInjector(
		storage.FaultRule{Op: storage.OpWALSync, Seq: 1, Kind: storage.FaultSyncFail},
	)
	w, err := Open(t.TempDir(), Options{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn := appendRecord(t, w, TypeReport, []byte("one"))
	err = w.Commit(lsn)
	var fe *storage.FaultError
	if !errors.As(err, &fe) || fe.Kind != storage.FaultSyncFail {
		t.Fatalf("Commit under a one-shot fsync fault = %v, want the injected sync-fail", err)
	}
	if got := fi.SyncPoints(); got != 1 {
		t.Fatalf("%d fsyncs issued, want 1", got)
	}
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d after a failed fsync, want 0", got)
	}
}

func TestWALPermanentAppendFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	fi := storage.NewScriptedInjector(
		storage.FaultRule{Op: storage.OpWALAppend, Seq: 2, Kind: storage.FaultPermanentEIO},
	)
	w, err := Open(dir, Options{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(TypeReport, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	_, err = w.Append(TypeReport, []byte("doomed"))
	if !storage.IsMediaFault(err) {
		t.Fatalf("append error %v is not classified as a media fault", err)
	}
	// The fault fired before any byte hit the file: the log is NOT poisoned
	// for durability purposes, and the latched op keeps failing.
	if _, err := w.Append(TypeReport, []byte("still doomed")); err == nil {
		t.Fatal("latched permanent append fault cleared itself")
	}
}

// TestSyncKeepsSealedSegmentsAfterFailedFsync pins that a Sync whose fsync of
// a parked (SyncNone-rotated) segment fails leaves every segment it did not
// sync parked, and that the next Sync returns the first failure without
// issuing an fsync or closing a parked segment.
func TestSyncKeepsSealedSegmentsAfterFailedFsync(t *testing.T) {
	fi := storage.NewScriptedInjector(
		storage.FaultRule{Op: storage.OpWALSync, Seq: 1, Kind: storage.FaultSyncFail},
	)
	w, err := Open(t.TempDir(), Options{
		Policy:       None(),
		SegmentBytes: 64,
		Injector:     fi,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 8; i++ {
		appendRecord(t, w, TypeReport, bytes.Repeat([]byte{byte(i)}, 40))
	}
	parked := len(w.sealed)
	if parked < 2 {
		t.Fatalf("%d sealed segments parked, want >= 2", parked)
	}
	first := w.Sync()
	if first == nil {
		t.Fatal("Sync with its first fsync failing returned nil")
	}
	if got := len(w.sealed); got != parked {
		t.Fatalf("%d segments parked after the failed Sync, want %d", got, parked)
	}
	before := fi.SyncPoints()
	if err := w.Sync(); !errors.Is(err, first) {
		t.Fatalf("Sync after a failed fsync = %v, want an error wrapping %v", err, first)
	}
	if got := fi.SyncPoints() - before; got != 0 {
		t.Fatalf("second Sync reached %d sync points, want 0", got)
	}
	if got := len(w.sealed); got != parked {
		t.Fatalf("%d segments parked after the second Sync, want %d", got, parked)
	}
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("durable LSN %d after failed Syncs, want 0", got)
	}
}

// fsyncFailsAfter scripts a FaultSyncFail on WAL fsyncs ok+1 … ok+4: ok
// fsyncs succeed, then four fail. One failure is all a log may see — after
// it no fsync is issued at all — but a log that tried again up to four times
// would still meet only failures inside its first Commit, and acknowledge a
// record on the fsync after them.
func fsyncFailsAfter(ok int64) *storage.FaultInjector {
	var rules []storage.FaultRule
	for seq := ok + 1; seq <= ok+4; seq++ {
		rules = append(rules, storage.FaultRule{Op: storage.OpWALSync, Seq: seq, Kind: storage.FaultSyncFail})
	}
	return storage.NewScriptedInjector(rules...)
}

// TestFailedFsyncPoisonsLog pins that a failed fsync is final. After a
// failed writeback the kernel may mark the dirty pages clean, so a later
// fsync can succeed without the records that were in flight: every Commit
// of a record that no earlier fsync covered, and every later Sync, returns
// the first failure, and no fsync is issued again. That holds for two
// committers that share one group-commit flush too.
func TestFailedFsyncPoisonsLog(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		fi := fsyncFailsAfter(1)
		w, err := Open(t.TempDir(), Options{Injector: fi})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		l0 := appendRecord(t, w, TypeReport, []byte("zero"))
		if err := w.Commit(l0); err != nil {
			t.Fatalf("Commit(l0) before the fault: %v", err)
		}
		l1 := appendRecord(t, w, TypeReport, []byte("one"))
		l2 := appendRecord(t, w, TypeReport, []byte("two"))
		first := w.Commit(l1)
		if !storage.IsMediaFault(first) {
			t.Fatalf("Commit(l1) = %v, want the fsync fault", first)
		}
		if err := w.Commit(l2); !errors.Is(err, first) {
			t.Fatalf("Commit(l2) = %v with DurableLSN = %d (l2 = %d), want an error wrapping %v",
				err, w.DurableLSN(), l2, first)
		}
		if err := w.Commit(l0); err != nil {
			t.Fatalf("Commit(l0), covered by the fsync before the fault: %v", err)
		}
		if err := w.Sync(); !errors.Is(err, first) {
			t.Fatalf("Sync after the fault = %v, want an error wrapping %v", err, first)
		}
		if got := w.DurableLSN(); got != l0 {
			t.Fatalf("DurableLSN = %d, want %d (the last successful fsync)", got, l0)
		}
		if got := fi.SyncPoints(); got != 2 {
			t.Fatalf("%d fsyncs issued, want 2 (one clean, one failed)", got)
		}
	})
	t.Run("group", func(t *testing.T) {
		fi := fsyncFailsAfter(0)
		w, err := Open(t.TempDir(), Options{Policy: GroupCommit(20 * time.Millisecond), Injector: fi})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		lsns := []uint64{
			appendRecord(t, w, TypeReport, []byte("one")),
			appendRecord(t, w, TypeReport, []byte("two")),
		}
		errs := make([]error, len(lsns))
		var wg sync.WaitGroup
		for i, lsn := range lsns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = w.Commit(lsn)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if !storage.IsMediaFault(err) {
				t.Errorf("Commit(l%d) = %v with DurableLSN = %d (l%d = %d), want the fsync fault",
					i+1, err, w.DurableLSN(), i+1, lsns[i])
			}
		}
		if got := w.DurableLSN(); got != 0 {
			t.Fatalf("DurableLSN = %d after the only fsync failed, want 0", got)
		}
		if got := fi.SyncPoints(); got != 1 {
			t.Fatalf("%d fsyncs issued, want 1", got)
		}
	})
}
