package vpindex

import (
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Health is the Store's fault-tolerance state. Transitions are one-way:
//
//	Healthy ──(storage media fault)──▶ Degraded ──(crash/Close)──▶ Failed
//
// A Healthy store serves everything. A Degraded store is read-only: every
// write verb (Report, ReportBatch, Insert, Update, Remove, Subscribe,
// Unsubscribe, RefreshSubscriptions) returns an error wrapping ErrDegraded,
// while Get, Search, SearchKNN, SubscriptionResults, and the Events stream
// keep serving from the in-memory state — degradation sheds durability, not
// availability. A Failed store (closed, or hit an injected crash) refuses
// writes with ErrFailed.
//
// Classification happens at the write-verb exits, and there is one rule: an
// I/O error is final. Nothing retries a failed read, write or fsync, so any
// media fault (an EIO, a failed fsync, a checksum failure) degrades; an
// injected crash fails. A failed log fsync also poisons the log, so no
// write that it might have lost is acknowledged. Reads classify too: a page
// that fails its checksum degrades the store the first time a query reads
// it. The integrity scrubber (WithScrubEvery, ScrubNow) re-scans the sealed
// log segments, which recovery replays, and degrades when one is corrupt;
// the page file is scratch that recovery never reads, so nothing scrubs it.
type Health int32

const (
	// HealthHealthy is the normal full-service state.
	HealthHealthy Health = iota
	// HealthDegraded is the read-only state entered on a storage media
	// fault: reads and subscriptions keep serving, writes return
	// ErrDegraded. The data directory keeps every acknowledged write up to
	// the fault, so a later Open (after the media is repaired) recovers it.
	HealthDegraded
	// HealthFailed is terminal: the store is closed or its simulated
	// process image is dead (ErrInjectedCrash). Writes return ErrFailed.
	HealthFailed
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// Health returns the Store's current fault-tolerance state. A non-durable
// Store is always Healthy.
func (s *Store) Health() Health { return Health(s.health.Load()) }

// degrade moves a Healthy store to Degraded (read-only), recording why.
// Only the first degradation records its reason and emits a MaintHealth
// event; an already-degraded or failed store is left alone.
func (s *Store) degrade(reason string, cause error) {
	if !s.health.CompareAndSwap(int32(HealthHealthy), int32(HealthDegraded)) {
		return
	}
	s.healthMu.Lock()
	s.healthReason, s.healthCause = reason, cause
	s.healthMu.Unlock()
	err := fmt.Errorf("vpindex: degraded to read-only: %s", reason)
	if cause != nil {
		err = fmt.Errorf("vpindex: degraded to read-only (%s): %w", reason, cause)
	}
	ev := MaintenanceEvent{Op: MaintHealth, Err: err}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
}

// failStore moves the store to Failed from any prior state. The first
// transition out of Healthy keeps its recorded reason; a clean Close (the
// one orderly path here) emits no maintenance event.
func (s *Store) failStore(reason string, cause error) {
	if Health(s.health.Swap(int32(HealthFailed))) == HealthFailed {
		return
	}
	s.healthMu.Lock()
	if s.healthReason == "" {
		s.healthReason, s.healthCause = reason, cause
	}
	s.healthMu.Unlock()
	if cause == nil {
		return // orderly Close, not a fault
	}
	ev := MaintenanceEvent{Op: MaintHealth, Err: fmt.Errorf("vpindex: store failed (%s): %w", reason, cause)}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
}

// writeAllowed is the write-verb health gate. The returned error wraps both
// the state sentinel (ErrDegraded / ErrFailed) and the recorded cause, so
// errors.Is matches either — in particular, writes refused after an injected
// crash still match ErrInjectedCrash, which the kill-point oracle asserts.
func (s *Store) writeAllowed() error {
	switch Health(s.health.Load()) {
	case HealthHealthy:
		return nil
	case HealthDegraded:
		return s.healthErr(ErrDegraded)
	default:
		return s.healthErr(ErrFailed)
	}
}

// healthErr builds the refusal error for the current unhealthy state.
func (s *Store) healthErr(sentinel error) error {
	s.healthMu.Lock()
	reason, cause := s.healthReason, s.healthCause
	s.healthMu.Unlock()
	if cause != nil {
		return fmt.Errorf("vpindex: write refused (%s): %w: %w", reason, sentinel, cause)
	}
	return fmt.Errorf("vpindex: write refused (%s): %w", reason, sentinel)
}

// noteIOFault classifies an error that escaped a Store verb and advances the
// health state machine: an injected crash fails the store, a media fault
// degrades it, and anything else (ErrNotFound, ErrDuplicate, validation
// errors) is left alone. Called after all Store locks are released.
func (s *Store) noteIOFault(err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrInjectedCrash):
		s.failStore("injected crash", err)
	case storage.IsMediaFault(err):
		s.degrade("storage media fault", err)
	}
}

// ScrubNow runs one synchronous integrity scrub pass over the sealed WAL
// segments (WithScrubEvery runs it on the maintenance loop) and returns the
// corruption found, which degrades the store to read-only; any other error
// is classified like a verb's. Every pass is a MaintScrub event. A degraded
// store may still scrub, and Checkpoint, which reclaims the covered segments,
// the corrupt one included. Returns ErrUnsupported for a non-durable Store
// and, like Checkpoint, ErrFailed for a closed or failed one.
func (s *Store) ScrubNow() error {
	d := s.dur
	if d == nil {
		return fmt.Errorf("vpindex: scrub of a non-durable store: %w", ErrUnsupported)
	}
	if Health(s.health.Load()) == HealthFailed {
		return s.healthErr(ErrFailed)
	}
	err := d.wal.Verify()
	d.scrubPasses.Add(1)
	if errors.Is(err, wal.ErrCorrupt) {
		d.scrubCorrupt.Add(1)
		s.degrade("scrub found corruption", err)
	} else {
		s.noteIOFault(err)
	}
	ev := MaintenanceEvent{Op: MaintScrub, Err: err}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
	return err
}
