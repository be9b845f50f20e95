// Package ckpt is the durable Store's checkpoint chain: the element type, its
// byte format, the shadow-write file protocol, the chain reader with its
// linkage rules, and the fold that collapses a chain into one full snapshot.
// It knows nothing of the Store — what to capture, when to compact and how to
// apply an element are the engine's business (durability.go in the root
// package); everything that turns an element into bytes on disk and back is
// here, so it can be fuzzed and reused without an engine around it.
//
// A data directory holds at most one full snapshot (FullName) and, behind it,
// delta files named by generation (DeltaName). Generations are monotonic
// across fulls and deltas; each delta records the generation it chains onto.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/wal"
)

// Element is one chain element: a consistent cut of the Store's logical state
// (full snapshot) or of everything that changed since the previous element
// (delta). Partitioned doubles as "this element carries an analysis to
// apply": always set for a partitioned full snapshot, set on a delta only
// when the partitions changed since the previous element. HasEngine likewise
// marks an element that carries the subscription registry; one without it
// means "unchanged since the previous element".
type Element struct {
	Gen       uint64 // chain generation; monotonic across fulls and deltas
	ParentGen uint64 // generation this delta chains onto (0 for a full)
	Delta     bool

	LSN         uint64 // log position the cut covers
	Partitioned bool
	Analysis    core.Analysis
	Objects     []model.Object
	Tombs       []model.ObjectID // IDs removed since the previous element (delta only)

	HasEngine bool
	Clock     float64
	NextID    monitor.SubscriptionID
	Subs      []Sub
}

// Sub is one subscription with its full membership.
type Sub struct {
	ID      monitor.SubscriptionID
	Sub     monitor.Subscription
	Members []model.ObjectID
}

// File layout: magic, version, payload, CRC32 of the payload. Version 2 added
// the chain fields (generation, parent generation, delta flag, tombstones) and
// made the analysis section conditional on its flag; it is the only version
// read or written.
const (
	magic   = 0x5650434B // "VPCK"
	version = 2
)

// Flag bits in the payload.
const (
	flagAnalysis = 1 << 0 // element carries a partition analysis
	flagEngine   = 1 << 1 // element carries the subscription registry
	flagDelta    = 1 << 2 // element is a delta, not a full snapshot
)

// Fixed widths of the payload's repeated sections.
const (
	objectBytes = 48               // wal.AppendObject
	idBytes     = 8                // one ObjectID
	subMinBytes = 8 + 1 + 14*8 + 8 // id, wal.AppendSubscription, member count
)

// Encode serializes an Element.
func Encode(e Element) []byte {
	b := make([]byte, 0, 96+len(e.Objects)*objectBytes+len(e.Tombs)*idBytes)
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	payloadStart := len(b)
	b = binary.LittleEndian.AppendUint64(b, e.Gen)
	b = binary.LittleEndian.AppendUint64(b, e.ParentGen)
	b = binary.LittleEndian.AppendUint64(b, e.LSN)
	var flags byte
	if e.Partitioned {
		flags |= flagAnalysis
	}
	if e.HasEngine {
		flags |= flagEngine
	}
	if e.Delta {
		flags |= flagDelta
	}
	b = append(b, flags)
	if e.Partitioned {
		an := core.EncodeAnalysis(e.Analysis)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(an)))
		b = append(b, an...)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Objects)))
	for _, o := range e.Objects {
		b = wal.AppendObject(b, o)
	}
	if e.Delta {
		b = appendIDs(b, e.Tombs)
	}
	if e.HasEngine {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Clock))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.NextID))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Subs)))
		for _, cs := range e.Subs {
			b = binary.LittleEndian.AppendUint64(b, uint64(cs.ID))
			b = wal.AppendSubscription(b, cs.Sub)
			b = appendIDs(b, cs.Members)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[payloadStart:]))
}

// appendIDs appends a count-prefixed id list.
func appendIDs(b []byte, ids []model.ObjectID) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

// reader walks a payload; the first short read latches bad and every later
// read returns zero, so a decoder checks once per section.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.bad = true
		r.b = nil
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads an element count and bounds it by the bytes that remain.
func (r *reader) count(size int) int {
	n := r.u64()
	if _, ok := model.CountBytes(n, size, len(r.b)); !ok {
		r.bad = true
		r.b = nil
		return 0
	}
	return int(n)
}

// ids reads a count-prefixed id list.
func (r *reader) ids() []model.ObjectID {
	out := make([]model.ObjectID, r.count(idBytes))
	for i := range out {
		out[i] = model.ObjectID(r.u64())
	}
	return out
}

// Decode reverses Encode, validating magic, version and CRC. The rename
// protocol makes a torn element impossible, so any validation failure is real
// corruption and surfaces as an error — never as a panic, and never as an
// allocation larger than the input justifies: every count is bounded by the
// bytes behind it before it sizes anything.
func Decode(b []byte) (Element, error) {
	bad := func(what string) (Element, error) {
		return Element{}, fmt.Errorf("ckpt: %s", what)
	}
	if len(b) < 12 {
		return bad("truncated header")
	}
	if binary.LittleEndian.Uint32(b) != magic {
		return bad("bad magic")
	}
	if ver := binary.LittleEndian.Uint32(b[4:]); ver != version {
		return bad(fmt.Sprintf("unsupported version %d", ver))
	}
	payload := b[8 : len(b)-4]
	if got, want := binary.LittleEndian.Uint32(b[len(b)-4:]), crc32.ChecksumIEEE(payload); got != want {
		return bad("CRC mismatch")
	}
	r := reader{b: payload}
	var e Element
	e.Gen, e.ParentGen, e.LSN = r.u64(), r.u64(), r.u64()
	if r.bad || len(r.b) < 1 {
		return bad("truncated")
	}
	flags := r.b[0]
	r.b = r.b[1:]
	e.Partitioned = flags&flagAnalysis != 0
	e.HasEngine = flags&flagEngine != 0
	e.Delta = flags&flagDelta != 0
	if e.Partitioned {
		anLen := r.count(1)
		if r.bad {
			return bad("truncated analysis")
		}
		var err error
		if e.Analysis, err = core.DecodeAnalysis(r.b[:anLen]); err != nil {
			return Element{}, err
		}
		r.b = r.b[anLen:]
	}
	e.Objects = make([]model.Object, r.count(objectBytes))
	if r.bad {
		return bad("truncated objects")
	}
	for i := range e.Objects {
		var err error
		if e.Objects[i], r.b, err = wal.TakeObject(r.b); err != nil {
			return Element{}, err
		}
	}
	if e.Delta {
		if e.Tombs = r.ids(); r.bad {
			return bad("truncated tombstones")
		}
	}
	if e.HasEngine {
		e.Clock = math.Float64frombits(r.u64())
		e.NextID = monitor.SubscriptionID(r.u64())
		e.Subs = make([]Sub, r.count(subMinBytes))
		if r.bad {
			return bad("truncated registry")
		}
		for i := range e.Subs {
			cs := &e.Subs[i]
			cs.ID = monitor.SubscriptionID(r.u64())
			var err error
			if cs.Sub, r.b, err = wal.TakeSubscription(r.b); err != nil {
				return Element{}, err
			}
			if cs.Members = r.ids(); r.bad {
				return bad("truncated subscription")
			}
		}
	}
	if len(r.b) != 0 {
		return bad("trailing bytes")
	}
	return e, nil
}
