package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the storage fault plane: a typed error taxonomy for media
// faults, a scriptable fault injector at the PageStore/WAL boundary, and the
// bounded-backoff retry policy the buffer pool and the WAL drive transient
// faults through.
//
// The taxonomy splits faults along one axis that matters to callers — does
// retrying help? Transient faults (a flaky bus returning EIO, an fsync that
// fails once) are retried with exponential backoff and never surface when the
// retry wins. Persistent faults (a latched bad sector, exhausted retries, a
// checksum mismatch) surface as errors and drive the Store's health state
// machine toward read-only degradation (see vpindex health.go).

// FaultOp identifies one I/O site the injector can interpose on.
type FaultOp uint8

const (
	// OpPageRead is a FileStore.ReadPage transfer.
	OpPageRead FaultOp = iota
	// OpPageWrite is a FileStore.WritePage transfer.
	OpPageWrite
	// OpPageSync is a FileStore.Sync barrier.
	OpPageSync
	// OpWALAppend is a WAL record write.
	OpWALAppend
	// OpWALSync is a WAL fsync (group commit, rotation, Sync).
	OpWALSync
	// OpCheckpointSync is a checkpoint file or directory fsync.
	OpCheckpointSync

	nFaultOps
)

// String names the op for error messages.
func (op FaultOp) String() string {
	switch op {
	case OpPageRead:
		return "page-read"
	case OpPageWrite:
		return "page-write"
	case OpPageSync:
		return "page-sync"
	case OpWALAppend:
		return "wal-append"
	case OpWALSync:
		return "wal-sync"
	case OpCheckpointSync:
		return "checkpoint-sync"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// FaultKind classifies what the injector does to one I/O.
type FaultKind uint8

const (
	// FaultNone lets the I/O through untouched.
	FaultNone FaultKind = iota
	// FaultTransientEIO fails this one attempt with a retryable I/O error.
	FaultTransientEIO
	// FaultPermanentEIO latches the target (the page, or the whole op for
	// sync/append sites) as bad: this and every later attempt fails.
	FaultPermanentEIO
	// FaultTornWrite lets a page write succeed but persists only a prefix of
	// the on-disk slot — the checksum catches it on the next read.
	FaultTornWrite
	// FaultBitFlip lets a page write succeed but flips one bit of the
	// persisted image — bit rot, caught by the checksum on the next read.
	FaultBitFlip
	// FaultSyncFail fails one fsync attempt (retryable).
	FaultSyncFail
	// FaultLatency delays the I/O without failing it.
	FaultLatency
)

// String names the kind for error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTransientEIO:
		return "transient-eio"
	case FaultPermanentEIO:
		return "permanent-eio"
	case FaultTornWrite:
		return "torn-write"
	case FaultBitFlip:
		return "bit-flip"
	case FaultSyncFail:
		return "sync-fail"
	case FaultLatency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FaultDecision is one scripted outcome for one I/O attempt.
type FaultDecision struct {
	Kind FaultKind
	// Latency delays the attempt before the Kind applies (also honored with
	// FaultNone/FaultLatency for pure latency spikes).
	Latency time.Duration
}

// FaultScript decides the fate of each I/O attempt. seq is the 1-based
// attempt counter of op (each retry is a fresh attempt with a fresh seq);
// page is the page id for page ops and 0 otherwise. Implementations must be
// safe for concurrent use.
type FaultScript interface {
	Decide(op FaultOp, seq int64, page PageID) FaultDecision
}

// FaultRule is one deterministic trigger of a scripted schedule.
type FaultRule struct {
	// Op is the I/O site the rule watches.
	Op FaultOp
	// Seq fires on the Seq-th attempt of Op (1-based). 0 fires on every
	// attempt.
	Seq int64
	// Page restricts the rule to one page id (page ops only). 0 matches any.
	Page PageID
	// Kind is the injected fault.
	Kind FaultKind
	// Count bounds how many times the rule may fire; 0 is unlimited.
	Count int
	// Latency delays the attempt (useful alone with FaultLatency).
	Latency time.Duration
}

// scripted is the deterministic FaultScript behind Script.
type scripted struct {
	mu    sync.Mutex
	rules []FaultRule
	fired []int
}

// Script builds a deterministic fault schedule from rules; the first matching
// rule wins each attempt.
func Script(rules ...FaultRule) FaultScript {
	return &scripted{rules: rules, fired: make([]int, len(rules))}
}

func (s *scripted) Decide(op FaultOp, seq int64, page PageID) FaultDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.rules {
		if r.Op != op {
			continue
		}
		if r.Seq != 0 && r.Seq != seq {
			continue
		}
		if r.Page != 0 && r.Page != page {
			continue
		}
		if r.Count > 0 && s.fired[i] >= r.Count {
			continue
		}
		s.fired[i]++
		return FaultDecision{Kind: r.Kind, Latency: r.Latency}
	}
	return FaultDecision{}
}

// FaultRates is the per-attempt probability profile of a seeded random
// schedule. Rates are independent probabilities in [0, 1]; the applicable
// ones are checked in declaration order and the first hit wins.
type FaultRates struct {
	// TransientEIO applies to page reads, page writes, and WAL appends.
	TransientEIO float64
	// PermanentEIO applies to the same sites and latches the target bad.
	PermanentEIO float64
	// TornWrite and BitFlip apply to page writes.
	TornWrite float64
	BitFlip   float64
	// SyncFail applies to every sync site (transient).
	SyncFail float64
	// Latency is the probability of a latency spike up to MaxLatency on any
	// attempt (independent of the fault outcome).
	Latency    float64
	MaxLatency time.Duration
}

// seeded is the probabilistic FaultScript behind SeededFaults.
type seeded struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates FaultRates
}

// SeededFaults builds a reproducible probabilistic fault schedule: the same
// seed and the same sequence of attempts produce the same faults.
func SeededFaults(seed int64, rates FaultRates) FaultScript {
	return &seeded{rng: rand.New(rand.NewSource(seed)), rates: rates}
}

func (s *seeded) Decide(op FaultOp, _ int64, _ PageID) FaultDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d FaultDecision
	if s.rates.Latency > 0 && s.rng.Float64() < s.rates.Latency && s.rates.MaxLatency > 0 {
		d.Latency = time.Duration(s.rng.Int63n(int64(s.rates.MaxLatency)) + 1)
		d.Kind = FaultLatency
	}
	switch op {
	case OpPageRead, OpWALAppend:
		switch {
		case s.rng.Float64() < s.rates.TransientEIO:
			d.Kind = FaultTransientEIO
		case s.rng.Float64() < s.rates.PermanentEIO:
			d.Kind = FaultPermanentEIO
		}
	case OpPageWrite:
		switch {
		case s.rng.Float64() < s.rates.TransientEIO:
			d.Kind = FaultTransientEIO
		case s.rng.Float64() < s.rates.PermanentEIO:
			d.Kind = FaultPermanentEIO
		case s.rng.Float64() < s.rates.TornWrite:
			d.Kind = FaultTornWrite
		case s.rng.Float64() < s.rates.BitFlip:
			d.Kind = FaultBitFlip
		}
	case OpPageSync, OpWALSync, OpCheckpointSync:
		if s.rng.Float64() < s.rates.SyncFail {
			d.Kind = FaultSyncFail
		}
	}
	return d
}

// FaultError is an injected (or classified) media fault. It unwraps to
// syscall.EIO so errors.Is(err, syscall.EIO) matches, and its Transient
// method feeds IsTransient.
type FaultError struct {
	Op   FaultOp
	Page PageID
	Kind FaultKind
}

func (e *FaultError) Error() string {
	if e.Page != NilPage {
		return fmt.Sprintf("storage: injected %s fault on %s of page %d", e.Kind, e.Op, e.Page)
	}
	return fmt.Sprintf("storage: injected %s fault on %s", e.Kind, e.Op)
}

// Unwrap ties every injected fault to the canonical I/O errno.
func (e *FaultError) Unwrap() error { return syscall.EIO }

// Transient reports whether retrying the attempt may succeed.
func (e *FaultError) Transient() bool {
	return e.Kind == FaultTransientEIO || e.Kind == FaultSyncFail
}

// retriesExhausted marks a transient fault that survived a full retry budget:
// the inner cause is preserved for inspection, but the wrapper reports
// non-transient so callers escalate instead of retrying again. errors.As
// finds the outermost Transient() first, which is exactly the override.
type retriesExhausted struct{ err error }

func (e *retriesExhausted) Error() string {
	return fmt.Sprintf("storage: retries exhausted: %v", e.err)
}
func (e *retriesExhausted) Unwrap() error   { return e.err }
func (e *retriesExhausted) Transient() bool { return false }

// IsTransient reports whether err is a media fault worth retrying. The
// outermost Transient() in the unwrap chain wins, so a retries-exhausted
// wrapper around a transient fault correctly reads as non-transient.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// IsMediaFault reports whether err is a storage-media fault (injected or
// real), as opposed to a caller bug like reading an unallocated page. Media
// faults that are not transient are what degrade a Store to read-only.
func IsMediaFault(err error) bool {
	var fe *FaultError
	if errors.As(err, &fe) {
		return true
	}
	return errors.Is(err, ErrCorruptPage) || errors.Is(err, syscall.EIO)
}

// RetryPolicy bounds the exponential-backoff retry loop wrapped around the
// buffer pool's page I/O and the WAL's append/fsync paths. Only transient
// faults (IsTransient) are retried; everything else returns immediately.
// The zero value takes the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (first try included). <= 0
	// takes DefaultRetryAttempts.
	MaxAttempts int
	// BaseDelay is the sleep after the first failed attempt; it doubles per
	// retry. <= 0 takes DefaultRetryBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. <= 0 takes DefaultRetryMaxDelay.
	MaxDelay time.Duration
}

// Retry policy defaults: four attempts spanning ~7 ms of backoff — long
// enough to ride out a transient controller hiccup, short enough that a
// genuinely bad device degrades the store quickly instead of stalling it.
const (
	DefaultRetryAttempts  = 4
	DefaultRetryBaseDelay = time.Millisecond
	DefaultRetryMaxDelay  = 50 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMaxDelay
	}
	return p
}

// Do runs op, retrying transient failures with exponential backoff up to the
// attempt budget. retries, when non-nil, counts the retry attempts taken.
// When the budget runs out on a transient fault the error comes back wrapped
// as non-transient (retries exhausted), so callers escalate exactly once.
func (p RetryPolicy) Do(retries *atomic.Int64, op func() error) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			return &retriesExhausted{err: err}
		}
		if retries != nil {
			retries.Add(1)
		}
		time.Sleep(delay)
		delay *= 2
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// SyncDir fsyncs a directory so a freshly created file's directory entry is
// durable. Deliberately not routed through any fault injector: it runs on
// the Open paths, where an injected kill would fail store creation rather
// than model a crash.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", path, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: fsync dir %s: %w", path, err)
	}
	return nil
}

// --- FaultInjector script integration -------------------------------------
//
// The legacy kill -9 model (NewFaultInjector: die at the Nth sync point)
// lives in pagestore.go. The hooks below extend the same injector into the
// scriptable fault plane: every FileStore/WAL I/O site consults its op hook,
// which runs the legacy crash bookkeeping first and then the script, if any.

// NewScriptedInjector returns an injector driven by a deterministic rule
// schedule (see FaultRule / Script).
func NewScriptedInjector(rules ...FaultRule) *FaultInjector {
	return &FaultInjector{script: Script(rules...)}
}

// NewSeededInjector returns an injector driven by a seeded probabilistic
// schedule (see FaultRates / SeededFaults).
func NewSeededInjector(seed int64, rates FaultRates) *FaultInjector {
	return &FaultInjector{script: SeededFaults(seed, rates)}
}

// InjectedFaults returns how many non-latency faults the script has injected.
func (fi *FaultInjector) InjectedFaults() int64 {
	if fi == nil {
		return 0
	}
	return fi.injected.Load()
}

// decide consults the script for one attempt, applying latency in place.
func (fi *FaultInjector) decide(op FaultOp, page PageID) FaultDecision {
	if fi.script == nil {
		return FaultDecision{}
	}
	seq := fi.counts[op].Add(1)
	d := fi.script.Decide(op, seq, page)
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	return d
}

// permPage reports (and latches) whether a page carries a permanent fault.
func (fi *FaultInjector) permPage(id PageID) bool {
	fi.permMu.Lock()
	defer fi.permMu.Unlock()
	_, ok := fi.permPages[id]
	return ok
}

func (fi *FaultInjector) latchPage(id PageID) {
	fi.permMu.Lock()
	if fi.permPages == nil {
		fi.permPages = make(map[PageID]struct{})
	}
	fi.permPages[id] = struct{}{}
	fi.permMu.Unlock()
}

func (fi *FaultInjector) permOp(op FaultOp) bool {
	fi.permMu.Lock()
	defer fi.permMu.Unlock()
	return fi.permOps[op]
}

func (fi *FaultInjector) latchOp(op FaultOp) {
	fi.permMu.Lock()
	fi.permOps[op] = true
	fi.permMu.Unlock()
}

// PageRead gates one FileStore read attempt of page id. Reads are not
// refused after a legacy kill (matching the pre-script behavior: a dead
// process model has no reads left to issue, and recovery opens a fresh
// injector anyway).
func (fi *FaultInjector) PageRead(id PageID) error {
	if fi == nil {
		return nil
	}
	if fi.permPage(id) {
		fi.injected.Add(1)
		return &FaultError{Op: OpPageRead, Page: id, Kind: FaultPermanentEIO}
	}
	switch d := fi.decide(OpPageRead, id); d.Kind {
	case FaultTransientEIO:
		fi.injected.Add(1)
		return &FaultError{Op: OpPageRead, Page: id, Kind: FaultTransientEIO}
	case FaultPermanentEIO:
		fi.injected.Add(1)
		fi.latchPage(id)
		return &FaultError{Op: OpPageRead, Page: id, Kind: FaultPermanentEIO}
	}
	return nil
}

// PageWrite gates one FileStore write attempt of page id. A nil error with a
// non-FaultNone kind instructs the store to corrupt the persisted image
// (torn prefix or bit flip) while reporting success to the caller — exactly
// how real silent corruption behaves.
func (fi *FaultInjector) PageWrite(id PageID) (FaultKind, error) {
	if fi == nil {
		return FaultNone, nil
	}
	if fi.dead.Load() {
		return FaultNone, ErrInjectedCrash
	}
	if fi.permPage(id) {
		fi.injected.Add(1)
		return FaultNone, &FaultError{Op: OpPageWrite, Page: id, Kind: FaultPermanentEIO}
	}
	switch d := fi.decide(OpPageWrite, id); d.Kind {
	case FaultTransientEIO:
		fi.injected.Add(1)
		return FaultNone, &FaultError{Op: OpPageWrite, Page: id, Kind: FaultTransientEIO}
	case FaultPermanentEIO:
		fi.injected.Add(1)
		fi.latchPage(id)
		return FaultNone, &FaultError{Op: OpPageWrite, Page: id, Kind: FaultPermanentEIO}
	case FaultTornWrite, FaultBitFlip:
		fi.injected.Add(1)
		return d.Kind, nil
	}
	return FaultNone, nil
}

// WALAppend gates one WAL record write attempt. It runs before any byte
// reaches the log file, so a transient fault is retryable without poisoning
// the segment.
func (fi *FaultInjector) WALAppend() error {
	if fi == nil {
		return nil
	}
	if fi.dead.Load() {
		return ErrInjectedCrash
	}
	if fi.permOp(OpWALAppend) {
		fi.injected.Add(1)
		return &FaultError{Op: OpWALAppend, Kind: FaultPermanentEIO}
	}
	switch d := fi.decide(OpWALAppend, NilPage); d.Kind {
	case FaultTransientEIO:
		fi.injected.Add(1)
		return &FaultError{Op: OpWALAppend, Kind: FaultTransientEIO}
	case FaultPermanentEIO:
		fi.injected.Add(1)
		fi.latchOp(OpWALAppend)
		return &FaultError{Op: OpWALAppend, Kind: FaultPermanentEIO}
	}
	return nil
}

// SyncPoint gates one fsync attempt at op. It carries the legacy kill -9
// counter — every sync site shares one global sequence, exactly as
// BeforeSync counted before — plus the scripted sync faults.
func (fi *FaultInjector) SyncPoint(op FaultOp) error {
	if fi == nil {
		return nil
	}
	if fi.dead.Load() {
		return ErrInjectedCrash
	}
	n := fi.syncs.Add(1)
	if fi.killAt > 0 && n >= fi.killAt {
		fi.dead.Store(true)
		return ErrInjectedCrash
	}
	if fi.permOp(op) {
		fi.injected.Add(1)
		return &FaultError{Op: op, Kind: FaultPermanentEIO}
	}
	switch d := fi.decide(op, NilPage); d.Kind {
	case FaultSyncFail, FaultTransientEIO:
		fi.injected.Add(1)
		return &FaultError{Op: op, Kind: FaultSyncFail}
	case FaultPermanentEIO:
		fi.injected.Add(1)
		fi.latchOp(op)
		return &FaultError{Op: op, Kind: FaultPermanentEIO}
	}
	return nil
}
