package vpindex

import "repro/internal/storage"

// Test seams: options and accessors only the package's tests set or read.
// They compile into the test binary alone, so the public API carries none of
// them; a production Store runs the storeConfig zero values behind them.

// WithSearchParallelism is a test seam: it bounds the query fan-out worker
// pool (0 = GOMAXPROCS; 1 is the sequential probe order).
func WithSearchParallelism(n int) Option { return func(c *storeConfig) { c.searchPar = n } }

// WithWALSegmentBytes is a test seam: the log segment rotation size (default
// 4 MiB), so tests can exercise rotation with tiny segments.
func WithWALSegmentBytes(n int64) Option { return func(c *storeConfig) { c.walSegBytes = n } }

// QueryLogSize is a test seam: how many query shapes the partitioning cost
// model has as workload evidence.
func (s *Store) QueryLogSize() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.qlog)
}

// SubscriptionFilterClasses is a test seam: how many velocity classes the
// subscription filter maintains.
func (s *Store) SubscriptionFilterClasses() int {
	e := s.subEng.Load()
	if e == nil {
		return 0
	}
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	return e.filter.NumClasses()
}

// NumShards is a test seam: the Store's stripe count (WithShards).
func (s *Store) NumShards() int { return len(s.stripes) }

// MaintainNow is a test seam that steps the maintenance loop: it waits out a
// run already in progress, then runs whatever is still due on the caller's
// goroutine. When it returns, every task that was due at the call has
// finished, its hook events included.
func (s *Store) MaintainNow() { s.runDue() }

// The storage fault plane (see internal/storage), as test seams: tests script
// fault schedules against a durable Store and attach them with
// WithFaultInjector.
type (
	FaultOp     = storage.FaultOp
	FaultKind   = storage.FaultKind
	FaultRule   = storage.FaultRule
	FaultRates  = storage.FaultRates
	FaultScript = storage.FaultScript
)

const (
	OpPageRead       = storage.OpPageRead
	OpPageWrite      = storage.OpPageWrite
	OpPageSync       = storage.OpPageSync
	OpWALAppend      = storage.OpWALAppend
	OpWALSync        = storage.OpWALSync
	OpCheckpointSync = storage.OpCheckpointSync

	FaultPermanentEIO = storage.FaultPermanentEIO
	FaultTornWrite    = storage.FaultTornWrite
	FaultBitFlip      = storage.FaultBitFlip
	FaultSyncFail     = storage.FaultSyncFail
	FaultLatency      = storage.FaultLatency
)

// NewScriptedInjector is a test seam: storage.NewScriptedInjector.
func NewScriptedInjector(rules ...FaultRule) *FaultInjector {
	return storage.NewScriptedInjector(rules...)
}

// NewSeededInjector is a test seam: storage.NewSeededInjector.
func NewSeededInjector(seed int64, rates FaultRates) *FaultInjector {
	return storage.NewSeededInjector(seed, rates)
}

// IsMediaFault is a test seam: storage.IsMediaFault.
func IsMediaFault(err error) bool { return storage.IsMediaFault(err) }
