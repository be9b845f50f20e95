package vpindex

import (
	"errors"

	"repro/internal/model"
	"repro/internal/storage"
)

// Sentinel errors returned by the Store. They are re-exported from the
// shared internal data model, so a value that bubbled up from any layer of
// the system matches here.
//
// All call sites wrap these with context (object IDs, partition names), so
// test with errors.Is, never with equality:
//
//	if err := store.Remove(42); errors.Is(err, vpindex.ErrNotFound) { ... }
var (
	// ErrNotFound reports that no record with the given ID is indexed
	// (Remove/Get-style misses, updates of unknown objects).
	ErrNotFound = model.ErrNotFound
	// ErrDuplicate reports a strict Insert of an ID that is already
	// indexed. Report never returns it: reporting an existing ID is an
	// update.
	ErrDuplicate = model.ErrDuplicate
	// ErrUnsupported reports an operation the configured index structure
	// does not implement.
	ErrUnsupported = model.ErrUnsupported
	// ErrInvalidQuery reports a Search or SearchKNN query the validators
	// reject: a non-finite field, an empty or negative region, a time before
	// the issue time, an inverted interval, k <= 0. Subscribe and
	// RefreshSubscriptions return it for a non-finite now.
	ErrInvalidQuery = model.ErrInvalidQuery
	// ErrInjectedCrash reports that a WithFaultInjector kill point fired:
	// the simulated process image is dead and every further durable write
	// is refused (see NewFaultInjector).
	ErrInjectedCrash = storage.ErrInjectedCrash
	// ErrCorruptPage reports that a data page failed its CRC-32C checksum on
	// read: a torn write, bit rot, or a misdirected write. The page is
	// quarantined, never decoded.
	ErrCorruptPage = storage.ErrCorruptPage
)

// Sentinel errors of the Store health state machine (see Store.Health).
var (
	// ErrDegraded reports a write refused because the Store is degraded to
	// read-only after a storage media fault. Reads, searches, and
	// subscription evaluation keep serving.
	ErrDegraded = errors.New("vpindex: store degraded to read-only")
	// ErrFailed reports an operation refused because the Store has failed
	// (closed, or hit an unrecoverable fault).
	ErrFailed = errors.New("vpindex: store failed")
)
