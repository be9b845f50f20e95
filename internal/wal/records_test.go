package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
)

// TestDecodeReportBatchHostileCount is the regression test for the wrapped
// length check: with n = 2^60, n*48 wraps to 0, which equalled the length of
// the empty remainder, and make([]model.Object, n) panicked inside replay.
func TestDecodeReportBatchHostileCount(t *testing.T) {
	for _, n := range []uint64{1 << 60, 1 << 63, ^uint64(0)/48 + 1, 2} {
		p := binary.LittleEndian.AppendUint64(nil, n)
		if n == 2 {
			p = AppendObject(p, model.Object{ID: 1}) // one object short
		}
		if objs, err := DecodeReportBatch(p); err == nil {
			t.Fatalf("count %d over %d payload bytes decoded %d objects", n, len(p)-8, len(objs))
		}
	}
}

// decodeRecord runs the payload decoder replay uses for t; a swap record's
// payload is an analysis, which internal/core decodes.
func decodeRecord(t Type, p []byte) (reencoded []byte, err error) {
	switch t {
	case TypeReport:
		o, err := DecodeReport(p)
		return AppendObject(nil, o), err
	case TypeReportBatch:
		objs, err := DecodeReportBatch(p)
		return EncodeReportBatch(objs), err
	case TypeRemove:
		id, err := DecodeRemove(p)
		return AppendRemove(nil, id), err
	case TypeSubscribe:
		id, sub, now, err := DecodeSubscribe(p)
		return AppendSubscribe(nil, id, sub, now), err
	case TypeUnsubscribe:
		id, err := DecodeUnsubscribe(p)
		return AppendUnsubscribe(nil, id), err
	case TypePartitionSwap:
		an, err := core.DecodeAnalysis(p)
		return core.EncodeAnalysis(an), err
	case TypeRefresh:
		now, err := DecodeRefresh(p)
		return AppendRefresh(nil, now), err
	}
	return nil, nil
}

// FuzzDecodeRecords: every record type's payload decoder returns a value or
// an error for any bytes — never a panic, never an allocation out of
// proportion to the payload — and what decodes re-encodes to a payload that
// decodes to the same bytes again.
func FuzzDecodeRecords(f *testing.F) {
	o := model.Object{ID: 42, Pos: geom.V(1.5, -2.25), Vel: geom.V(0.125, 9), T: 77.5}
	sub := monitor.Subscription{Query: model.RangeQuery{Kind: model.TimeInterval, Rect: geom.R(1, 2, 3, 4), Now: 10, T0: 10, T1: 12}, Horizon: 30, Window: 5}
	an := core.Analysis{Kind: core.KindSpeed, SampleSize: 9, Frames: []core.Frame{{Axis: geom.V(1, 0), SpeedMax: 7, Count: 9}, {IsOutlier: true}}}
	batch := EncodeReportBatch([]model.Object{o, {ID: 7, T: 1}})
	swap := core.EncodeAnalysis(an)
	f.Add(byte(TypeReport), AppendObject(nil, o))
	f.Add(byte(TypeReportBatch), batch)
	f.Add(byte(TypeRemove), AppendRemove(nil, 99))
	f.Add(byte(TypeSubscribe), AppendSubscribe(nil, 17, sub, 123.5))
	f.Add(byte(TypeUnsubscribe), AppendUnsubscribe(nil, 17))
	f.Add(byte(TypePartitionSwap), swap)
	f.Add(byte(TypeRefresh), AppendRefresh(nil, 55.25))
	// The two count fields, each set to a wrapping, a just-past-2^64 and an
	// overrunning value, and each payload cut short.
	for _, n := range []uint64{1 << 60, 1 << 63, ^uint64(0)/48 + 1, 3} {
		b := bytes.Clone(batch)
		binary.LittleEndian.PutUint64(b, n)
		f.Add(byte(TypeReportBatch), b)
		s := bytes.Clone(swap)
		binary.LittleEndian.PutUint64(s[33:], n)
		f.Add(byte(TypePartitionSwap), s)
	}
	f.Add(byte(TypeReportBatch), batch[:20])
	f.Add(byte(TypePartitionSwap), swap[:40])
	f.Add(byte(TypeSubscribe), AppendSubscribe(nil, 17, sub, 123.5)[:50])

	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		const perByte, slack = 4, 64 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := decodeRecord(Type(typ), p)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(perByte*len(p)+slack); got > limit {
			t.Fatalf("type %d: decoding %d bytes allocated %d, limit %d", typ, len(p), got, limit)
		}
		if err != nil {
			return
		}
		if again, err := decodeRecord(Type(typ), enc); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("type %d: decoded payload does not round-trip (%v)\n in %x\nenc %x", typ, err, p, enc)
		}
	})
}
