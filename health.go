package vpindex

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/storage"
)

// Health is the Store's fault-tolerance state. Transitions are one-way:
//
//	Healthy ──(persistent media fault)──▶ Degraded ──(crash/Close)──▶ Failed
//
// A Healthy store serves everything. A Degraded store is read-only: every
// write verb (Report, ReportBatch, Insert, Update, Remove, Subscribe,
// Unsubscribe, RefreshSubscriptions) returns an error wrapping ErrDegraded,
// while Get, Search, SearchKNN, SubscriptionResults, and the Events stream
// keep serving from the in-memory state — degradation sheds durability, not
// availability. A Failed store (closed, or hit an injected crash) refuses
// writes with ErrFailed.
//
// Classification happens at the write-verb exits via the error taxonomy of
// internal/storage: transient faults are retried with bounded exponential
// backoff (4 attempts, 1ms base, 50ms cap) and never move the state
// machine; a persistent media fault (permanent EIO, exhausted retries, a
// checksum failure) degrades; an injected crash fails. The background
// scrubber (WithScrubEvery, ScrubNow) degrades proactively when it finds
// latent corruption.
type Health int32

const (
	// HealthHealthy is the normal full-service state.
	HealthHealthy Health = iota
	// HealthDegraded is the read-only state entered on a persistent
	// storage fault: reads and subscriptions keep serving, writes return
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
	for {
		cur := s.health.Load()
		if cur == int32(HealthFailed) {
			return
		}
		if s.health.CompareAndSwap(cur, int32(HealthFailed)) {
			break
		}
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
// health state machine. Transient faults were already retried below and never
// reach here with IsTransient true after exhaustion (the retry wrapper strips
// transience), so anything still transient — or not a storage fault at all
// (ErrNotFound, ErrDuplicate, validation errors) — is left alone. Called
// after all Store locks are released.
func (s *Store) noteIOFault(err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrInjectedCrash):
		s.failStore("injected crash", err)
	case storage.IsMediaFault(err) && !storage.IsTransient(err):
		s.degrade("persistent storage fault", err)
	}
}

// scrubLoop is the background integrity scrubber (WithScrubEvery): every
// tick it verifies each live page's checksum and the sealed log segments,
// degrading the store when latent corruption is found instead of letting a
// future read trip over it.
func (s *Store) scrubLoop(every time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = s.scrubOnce()
		}
	}
}

// ScrubNow runs one synchronous integrity scrub pass — every live page of
// the page file is checksum-verified (without disturbing cached frames) and
// the sealed WAL segments are re-scanned — returning the first corruption
// found, or nil. Corruption quarantines the page, degrades the store to
// read-only, and surfaces as a MaintScrub maintenance event. Returns
// ErrUnsupported for a non-durable Store.
func (s *Store) ScrubNow() error {
	if s.dur == nil {
		return fmt.Errorf("vpindex: scrub of a non-durable store: %w", ErrUnsupported)
	}
	return s.scrubOnce()
}

// scrubOnce verifies every live page and the sealed log segments once,
// recording the pass and degrading on corruption.
func (s *Store) scrubOnce() error {
	d := s.dur
	var (
		first   error
		corrupt int64
	)
	live := d.fstore.LivePages()
	for _, id := range live {
		if err := d.fstore.VerifyPage(id); err != nil {
			corrupt++
			if first == nil {
				first = err
			}
		}
	}
	if err := d.wal.Verify(); err != nil {
		corrupt++
		if first == nil {
			first = err
		}
	}
	d.scrubPasses.Add(1)
	if corrupt > 0 {
		d.scrubCorrupt.Add(corrupt)
		s.degrade("scrub found corruption", first)
	}
	ev := MaintenanceEvent{Op: MaintScrub, Err: first, SampleSize: len(live)}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
	return first
}
