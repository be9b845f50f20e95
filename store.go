package vpindex

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Store is the production facade over every index configuration in this
// package: one type that is plain or velocity-partitioned, TPR*- or
// Bx-backed, depending only on the Options passed to Open.
//
// Unlike a raw base index — where Delete and Update need the caller to hand
// back the exact old record — the Store keeps an id→record table
// (the partition manager's lookup table of Section 5.3), so clients speak in
// production verbs: Report (insert-or-update by ID), Remove (by ID), Get,
// ReportBatch. This is the operational shape of a live location service:
// devices send bare position/velocity reports; nobody ships the server's
// previous state back to it.
//
// # Concurrency: one partition set, one lock per object
//
// A Store is safe for concurrent use. It owns exactly one partition manager
// (core.Manager: the id→record table plus one index per partition frame, so
// k+1 indexes over k+1 buffer pools whatever WithShards is) from Open to
// Close; a Store without velocity partitioning, and one still counting
// reports toward its bootstrap, is that same manager under the unpartitioned
// objective: a single identity frame over the whole domain. WithShards(n)
// stripes the manager's table n ways, and that stripe's lock is the only
// id-hashed lock there is: everything else the Store keys by object — the
// checkpoint dirty set and the subscription memberships — lives in the
// Store's stripe of the same index and is updated in the same critical
// section as the table row (core.Settler). The table row is the one record of
// an object's velocity: every analysis samples it.
//
// # Lock order
//
// This is the one statement of it. A goroutine that holds one of these locks
// takes only locks to its right:
//
//	runMu → maintMu → ckptMu → commitMu → regMu → mgrMu → batchMu → table stripe → partition
//
// The remaining mutexes (poolMu, qmu, maintErrMu, healthMu, the event
// stream's) are leaves: nothing is taken under them. What each lock of the
// chain guards, and who takes it:
//
//   - runMu serializes runs of the background tasks (see maintain); maintMu
//     serializes maintenance (bootstrap, drift checks, Repartition); ckptMu
//     serializes checkpoint writers and compactions.
//   - commitMu is the write gate. Every write verb holds it shared across its
//     apply — and, durable, the append of its log record — in memory-only
//     stores too, and reads s.mgr under it. A checkpoint capture and a
//     partition swap hold it exclusively, so neither ever sees a verb between
//     its apply and its append.
//   - regMu (the subscription registry) is taken shared by a write that finds
//     subscriptions registered, before the manager call, so that its records
//     reconcile under their stripes with no lock taken after the stripe.
//   - mgrMu guards the manager pointer for everything but writers: queries,
//     Get, the snapshot paths. Only the pointer flip of a swap, which also
//     holds the gate, takes it exclusively. A query holds it shared, then
//     every table stripe and every partition shared (see core.Manager), so it
//     sees one instant of the whole Store; queries take no gate and keep being
//     served by the old manager while a swap rebuilds.
//   - A writer holds the stripes of its ids (a batch: each stripe it touches,
//     after queueing on the manager's batchMu, so that a waiting batch never
//     holds queries back) for its whole manager call, and takes the one or
//     two partitions each record's delete and insert touch one at a time
//     (routing reads only the manager's immutable analysis). Two writers
//     contend only when their ids share a stripe or their records a
//     partition: index-write parallelism is bounded by k+1, and a Store with
//     a single frame (no velocity partitioning, or the none objective) has
//     one index writer at a time.
//
// Subscription deltas are sorted and emitted, and the subscription filter
// grown, only once a verb has released every lock: a BlockOnFull stream never
// waits under one. Every partition index has its own LRU buffer pool over one
// shared disk; Stats aggregates their counters.
//
// # One swap
//
// Exactly one routine moves the live population between partition sets
// (swapPartitions): it builds a fresh manager with fresh pools, takes the
// write gate exclusively — writers wait for the one rebuild, queries keep
// being served by the old manager — migrates the population with a
// partition-parallel InsertBulk, flips the manager pointer under mgrMu, logs
// the swap, and retires the old pools once the flip has drained the queries
// using them. Queries answer identically before, during, and after. Every
// partition transition calls it:
//
//   - Online bootstrap. With velocity partitioning enabled but no upfront
//     sample, the Store counts reports; the writer whose report brings the
//     count to the WithAutoPartition threshold runs the analysis once over
//     the live objects' velocities and swaps from the unpartitioned manager
//     to the analysed one.
//   - Adaptive repartitioning. With a policy configured
//     (WithRepartitionPolicy), every policy-cadence reports a fresh analysis
//     of the live objects' velocities runs on the maintenance loop and, when
//     any live axis has drifted past the threshold, swaps. Repartition and
//     RepartitionTo are the synchronous manual triggers.
//   - Recovery. A logged swap record replays through the same routine.
//
// Maintenance is decoupled from the write path: a failed background
// analysis (e.g. fewer live objects than partitions) is recorded —
// LastMaintenanceError, WithMaintenanceHook — never returned from
// Report/ReportBatch, and the cadence keeps counting so the next multiple
// re-arms the check.
//
// # Continuous queries
//
// Standing subscriptions (Subscribe, Unsubscribe, SubscriptionResults,
// RefreshSubscriptions, Events) are served by a Store-native engine whose
// memberships live in the stripes and are reconciled in each record's own
// critical section — see subscriptions.go. Subscription result sets
// reference ObjectIDs, not index internals, so they ride through partition
// swaps unchanged; only the engine's coarse velocity-class filter is
// re-seeded from each new epoch's analysis.
type Store struct {
	cfg     storeConfig
	disk    storage.PageStore
	stripes []stripe

	// commitMu is the write gate (see "Lock order"): write verbs hold it
	// shared, checkpoint capture and swapPartitions exclusively.
	commitMu sync.RWMutex

	// mgr is the one partition manager, replaced only by swapPartitions under
	// the gate and mgrMu: write verbs read it under the gate, everything else
	// under mgrMu shared, held while in use.
	mgrMu sync.RWMutex
	mgr   *core.Manager

	// dur is the durable-mode state (WAL, checkpoints, recovery bookkeeping);
	// nil unless WithDataDir was given. Every logging verb reaches it through
	// the one write routine, logged. See durability.go.
	dur *durability

	// writePool recycles the write verbs' scratch (see write), so a steady
	// stream of reports and batches allocates no per-call state.
	writePool sync.Pool

	// pools are the live manager's buffer pools, one per partition, which
	// Stats aggregates. When a swap replaces the manager, the outgoing
	// pools' counters are folded into retired (keeping Stats cumulative and
	// monotonic) and the pools themselves are retired, releasing their
	// cached frames and their indexes' disk pages, so repeated swaps do not
	// grow memory forever.
	poolMu  sync.Mutex
	pools   []*storage.BufferPool
	retired IOStats

	// Bootstrap coordination: sampled counts the reports applied while an
	// auto-partitioning Store is unpartitioned; a report that brings it to
	// nextTrip attempts the bootstrap (under maintMu, like every other
	// maintenance action); partitioned flips true exactly once, when the
	// first swap completes. A rejected (degenerate) sample re-arms nextTrip a
	// full WithAutoPartition count later instead of retrying the O(n)
	// analysis on every subsequent write.
	sampled     atomic.Int64
	nextTrip    atomic.Int64
	partitioned atomic.Bool

	// Adaptive repartitioning: reports counts post-partition reports toward
	// the policy cadence (never reset); maintMu serializes maintenance
	// actions (the bootstrap, drift checks, swaps), and a drift check
	// TryLocks it and yields; epoch counts partition generations started and
	// repartitions counts completed swaps.
	reports      atomic.Int64
	maintMu      sync.Mutex
	epoch        atomic.Int64
	repartitions atomic.Int64
	swapping     atomic.Bool

	// qlog is the query-shape log of the partitioning cost model: a ring of
	// the most recently observed query shapes, qlogCap of them (0 unless the
	// auto chooser, its one reader, is configured), qpos the next overwrite
	// once full.
	qmu     sync.Mutex
	qlog    []core.QueryShape
	qpos    int
	qlogCap int

	maintErrMu sync.Mutex
	maintErr   error

	// The maintenance loop (see maintain): due holds the due tasks' bits,
	// kick wakes the loop, done closes when it exits (both nil without one),
	// runMu spans each run and runner names its goroutine; Close sets closed.
	due    atomic.Uint32
	kick   chan struct{}
	done   chan struct{}
	runMu  sync.Mutex
	runner atomic.Uint64
	closed atomic.Bool

	// subEng is the Store-native continuous-query engine (see
	// subscriptions.go), created lazily by the first Subscribe or Events
	// call; nil until then, so sub-less stores pay one atomic load per
	// write.
	subEng atomic.Pointer[subEngine]

	// Health state machine (see health.go): health holds the current Health
	// value; healthMu guards the reason/cause pair recorded when the Store
	// first left Healthy. Transitions are one-way (Healthy → Degraded →
	// Failed), driven by noteIOFault classification at the write-verb exits
	// and by the scrub.
	health       atomic.Int32
	healthMu     sync.Mutex
	healthReason string
	healthCause  error
}

// MaintenanceOp names a Store maintenance action.
type MaintenanceOp string

const (
	// MaintBootstrap is the one-shot auto-partition bootstrap: the first
	// partition swap, from the unpartitioned manager.
	MaintBootstrap MaintenanceOp = "bootstrap"
	// MaintDriftCheck is an automatic analyze-and-compare round that did
	// not swap (below threshold, or failed before the swap decision).
	MaintDriftCheck MaintenanceOp = "drift-check"
	// MaintRepartition is an analyze round that decided to rebuild the
	// partitions (threshold tripped, or the manual Repartition trigger).
	MaintRepartition MaintenanceOp = "repartition"
	// MaintCheckpoint is a durable-mode checkpoint (manual Checkpoint call
	// or the WithCheckpointEvery cadence).
	MaintCheckpoint MaintenanceOp = "checkpoint"
	// MaintHealth is a health-state transition (Healthy → Degraded or
	// → Failed); Err carries the classified cause. See Store.Health.
	MaintHealth MaintenanceOp = "health"
	// MaintScrub is one completed integrity scrub pass over the sealed WAL
	// segments (the WithScrubEvery cadence or a manual ScrubNow); Err is the
	// corruption found. It sets no other field.
	MaintScrub MaintenanceOp = "scrub"
)

// MaintenanceEvent reports one completed maintenance action to the
// WithMaintenanceHook observer.
type MaintenanceEvent struct {
	Op  MaintenanceOp
	Err error // nil on success
	// Drift is the objective distance between the live partition set and
	// the fresh analysis (drift checks and repartitions): the largest axis
	// angle in radians under the DVA objective, the scaled threshold shift
	// under the speed objective, core.DriftMax on an objective change.
	Drift float64
	// SampleSize is the number of velocities the analysis consumed.
	SampleSize int
	// Swapped reports whether a new partition set went live.
	Swapped bool
	// Objective is the partitioning objective of the analysis the action
	// selected (meaningful for bootstrap, drift-check, and repartition
	// events).
	Objective PartitionObjective
}

// stripe is the Store's state for the objects of one manager table stripe,
// touched only under that stripe's lock: by a write's Settled step, in the
// critical section that updates the table row, and by everything else through
// inStripe.
type stripe struct {
	// dirty is the stripe's incremental-checkpoint set (durable stores only;
	// nil otherwise): the IDs written — reported, inserted, updated or
	// removed — since the last checkpoint capture. A delta checkpoint looks
	// each one up and writes its current record, or a tombstone when it is
	// gone.
	dirty map[ObjectID]struct{}

	// rs holds the subscription memberships of the stripe's objects; cands is
	// the filter's candidate scratch.
	rs    *monitor.ResultSet
	cands []SubscriptionID
}

// inStripe runs fn on stripe i under the live manager's lock of that stripe.
// Callers hold no stripe and not mgrMu.
func (s *Store) inStripe(i int, fn func(st *stripe)) {
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	s.mgr.WithStripe(i, func() { fn(&s.stripes[i]) })
}

// byStripe groups ids by the stripe that holds their state.
func (s *Store) byStripe(ids []ObjectID) [][]ObjectID {
	out := make([][]ObjectID, len(s.stripes))
	for _, id := range ids {
		i := core.StripeOf(id, len(s.stripes))
		out[i] = append(out[i], id)
	}
	return out
}

// Open builds a Store from functional options. Examples:
//
//	// Unpartitioned TPR*-tree with defaults (sharded across GOMAXPROCS).
//	s, err := vpindex.Open()
//
//	// VP-partitioned Bx-tree that bootstraps its own partitions after
//	// the first 10,000 reports, with 8 table stripes.
//	s, err := vpindex.Open(
//		vpindex.WithKind(vpindex.Bx),
//		vpindex.WithShards(8),
//		vpindex.WithVelocityPartitioning(2),
//		vpindex.WithAutoPartition(10_000),
//	)
//
//	// VP with an upfront sample (partitioned immediately).
//	s, err := vpindex.Open(vpindex.WithVelocitySample(sample))
func Open(opts ...Option) (*Store, error) {
	var cfg storeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	if cfg.autoN > 0 && cfg.autoN < cfg.k {
		return nil, fmt.Errorf("vpindex: auto-partition threshold of %d reports cannot form %d partitions", cfg.autoN, cfg.k)
	}
	s := &Store{cfg: cfg}
	s.writePool.New = func() any { return &write{s: s} }
	if cfg.dataDir != "" {
		if err := s.initDurable(); err != nil {
			return nil, err
		}
	} else {
		s.disk = storage.NewMemStore()
	}
	fail := func(err error) (*Store, error) {
		s.closeFiles()
		return nil, err
	}
	if cfg.objective == ObjectiveAuto {
		s.qlogCap = defaultQueryLogSize
	}
	s.stripes = make([]stripe, cfg.shards)
	for i := range s.stripes {
		s.stripes[i].rs = monitor.NewResultSet()
		if cfg.dataDir != "" {
			// Durable stores track per-stripe dirty sets for delta checkpoints.
			s.stripes[i].dirty = make(map[ObjectID]struct{})
		}
	}
	// The Store runs a partition manager from Open on: the analysis of the
	// upfront sample when there is one, the unpartitioned objective's single
	// identity frame otherwise (no VP options, or the bootstrap still to
	// come).
	an, _ := core.NonePartitioner{}.Analyze(nil)
	upfront := len(cfg.sample) > 0
	if upfront {
		var err error
		if an, err = s.chooseAnalysis(cfg.sample, nil); err != nil {
			return fail(err)
		}
		s.epoch.Store(1)
		s.partitioned.Store(true)
	}
	s.nextTrip.Store(int64(cfg.autoN))
	mgr, err := s.buildManager(an, &s.pools)
	if err != nil {
		return fail(err)
	}
	s.mgr = mgr
	if s.dur != nil {
		if err := s.recover(); err != nil {
			return fail(err)
		}
	}
	if cfg.repart.Every > 0 || s.dur != nil && (cfg.ckptEvery > 0 || cfg.compactChain > 0 || cfg.compactBytes > 0 || cfg.scrubEvery > 0) {
		s.kick, s.done = make(chan struct{}, 1), make(chan struct{})
		go s.maintain()
	}
	return s, nil
}

// replacePools makes fresh the live pool set, folding the outgoing pools'
// counters into the retired total and releasing their frames and disk pages.
func (s *Store) replacePools(fresh []*storage.BufferPool) {
	s.poolMu.Lock()
	old := s.pools
	for _, p := range old {
		st := p.Stats()
		s.retired.Reads += st.Misses
		s.retired.Writes += st.Writes
		s.retired.Hits += st.Hits
	}
	s.pools = fresh
	s.poolMu.Unlock()
	for _, p := range old {
		p.Retire()
	}
}

// buildManager constructs a partition manager from the completed analysis,
// its table striped like the Store and each partition over its own buffer
// pool of WithBufferPages × shards frames (the total cache the same options
// gave when every shard had a pool per partition). New pools are appended to
// *pools, not made live, so a failed swap leaks nothing into Stats — the
// caller installs them on commit.
func (s *Store) buildManager(an core.Analysis, pools *[]*storage.BufferPool) (*core.Manager, error) {
	mgr, err := core.NewManager(an, core.ManagerConfig{
		Domain:            s.cfg.base.Domain,
		SearchParallelism: s.cfg.searchPar,
		Stripes:           s.cfg.shards,
	}, func(spec core.PartitionSpec) (model.Index, error) {
		p := storage.NewBufferPool(s.disk, s.cfg.base.BufferPages*s.cfg.shards)
		idx, err := buildBase(p, s.cfg.base, spec.Domain)
		if err != nil {
			return nil, err
		}
		*pools = append(*pools, p)
		return idx, nil
	})
	if err != nil {
		return nil, err
	}
	return mgr, nil
}

// defaultQueryLogSize is the capacity of the query-shape log.
const defaultQueryLogSize = 1024

// knownObjective reports whether obj names one of the three partitioners.
func knownObjective(obj PartitionObjective) bool {
	return obj == ObjectiveDVA || obj == ObjectiveSpeed || obj == ObjectiveNone
}

// partitionerFor builds the configured Partitioner for one known objective
// (Open and RepartitionTo reject the rest).
func (s *Store) partitionerFor(obj PartitionObjective) core.Partitioner {
	switch obj {
	case ObjectiveSpeed:
		return core.SpeedPartitioner{Bands: s.cfg.k}
	case ObjectiveNone:
		return core.NonePartitioner{}
	default:
		return core.DVAPartitioner{Config: core.AnalyzerConfig{
			K:       s.cfg.k,
			Cluster: cluster.Options{Seed: s.cfg.seed},
		}}
	}
}

// costQueries returns the workload evidence for the partitioning cost
// model: the pooled query-shape log, or — before any query has been
// observed — a single synthetic shape built from the paper's default query
// extent (1000 m, Table 1) and a medium prediction window, so the chooser is
// never blind.
func (s *Store) costQueries() []core.QueryShape {
	s.qmu.Lock()
	out := slices.Clone(s.qlog)
	s.qmu.Unlock()
	if len(out) > 0 {
		return out
	}
	return []core.QueryShape{{HalfW: 500, HalfH: 500, Window: 60}}
}

// chooseAnalysis picks the analysis the next partition epoch is built from.
// forced pins one objective (RepartitionTo); otherwise a fixed objective
// (WithPartitioner) analyzes with that partitioner only, and the auto
// chooser (WithPartitioner(ObjectiveAuto)) runs every candidate partitioner
// over the sample, scores each result against the recent query-shape log with
// core.EstimateCost, and takes the cheapest — with a 10% preference for the
// live objective so cost-model noise near a tie cannot flap the partitions
// between objectives on every drift check.
func (s *Store) chooseAnalysis(sample []Vec2, forced *PartitionObjective) (core.Analysis, error) {
	if forced != nil {
		an, err := s.partitionerFor(*forced).Analyze(sample)
		if err != nil {
			return core.Analysis{}, fmt.Errorf("vpindex: velocity analysis (%s): %w", *forced, err)
		}
		return an, nil
	}
	if s.cfg.objective != ObjectiveAuto {
		an, err := s.partitionerFor(s.cfg.objective).Analyze(sample)
		if err != nil {
			return core.Analysis{}, fmt.Errorf("vpindex: velocity analysis: %w", err)
		}
		return an, nil
	}
	queries := s.costQueries()
	live := ObjectiveDVA
	haveLive := false
	if s.partitioned.Load() {
		s.mgrMu.RLock()
		live = s.mgr.Analysis().Kind
		s.mgrMu.RUnlock()
		haveLive = true
	}
	var (
		best     core.Analysis
		bestCost float64
		found    bool
		firstErr error
	)
	for _, obj := range []PartitionObjective{ObjectiveDVA, ObjectiveSpeed, ObjectiveNone} {
		an, err := s.partitionerFor(obj).Analyze(sample)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cost := core.EstimateCost(an, sample, queries)
		if haveLive && obj == live {
			cost *= 0.9
		}
		if !found || cost < bestCost {
			best, bestCost, found = an, cost, true
		}
	}
	if !found {
		return core.Analysis{}, fmt.Errorf("vpindex: velocity analysis: %w", firstErr)
	}
	return best, nil
}

// bootstrap is the first partition swap of an auto-partitioning Store, run by
// a writer whose report brought the report count to the trip threshold:
// sample the live objects' velocities, choose the analysis, swap. Any number of
// tripping writers may call it; they serialize on maintMu like every other
// maintenance action and only the first does the work. The outcome is
// recorded as a maintenance event — never returned to the tripping writer,
// whose own report was already applied. A sample the analysis rejects (or a
// failed swap) leaves the current manager serving and re-arms the trip a
// full WithAutoPartition count later, so the O(n) analysis is not retried on
// every subsequent write but gets a fresh chance once the workload has
// produced new velocities.
func (s *Store) bootstrap() {
	s.maintMu.Lock()
	if s.partitioned.Load() || s.sampled.Load() < s.nextTrip.Load() {
		s.maintMu.Unlock()
		return
	}
	sample := s.velocitySample()
	ev := MaintenanceEvent{Op: MaintBootstrap, SampleSize: len(sample)}
	an, err := s.chooseAnalysis(sample, nil)
	if err == nil {
		ev.Objective = an.Kind
		err = s.swapPartitions(an)
	}
	ev.Err, ev.Swapped = err, err == nil
	if err != nil {
		s.nextTrip.Store(s.sampled.Load() + int64(s.cfg.autoN))
	}
	s.recordMaintenance(ev)
	s.maintMu.Unlock()
	s.notifyMaintenance(ev)
}

// recordMaintenance stores the outcome of one maintenance action for
// LastMaintenanceError. Bootstraps, drift checks and repartitions record under
// maintMu, in completion order; a checkpoint, scrub or health transition
// records without it and may overwrite a newer outcome.
func (s *Store) recordMaintenance(ev MaintenanceEvent) {
	s.maintErrMu.Lock()
	s.maintErr = ev.Err
	s.maintErrMu.Unlock()
}

// notifyMaintenance delivers the event to the hook. Called with no Store
// locks held: the hook contract allows it to call Store methods, including
// Repartition, which takes maintMu.
func (s *Store) notifyMaintenance(ev MaintenanceEvent) {
	if s.cfg.maintHook != nil {
		s.cfg.maintHook(ev)
	}
}

// LastMaintenanceError returns the error of the most recently recorded
// maintenance action (any MaintenanceOp), or nil if it succeeded.
// Maintenance failures are reported here and through
// WithMaintenanceHook only: they never surface as a Report/ReportBatch
// error, because the triggering write is already applied by the time
// maintenance runs.
func (s *Store) LastMaintenanceError() error {
	s.maintErrMu.Lock()
	defer s.maintErrMu.Unlock()
	return s.maintErr
}

// driftCheck is the automatic repartition probe, a task of the maintenance
// loop: re-analyze the live objects' velocities off the write path —
// under ObjectiveAuto, evaluating every candidate objective against
// the recent query log — and rebuild the partitions when the live set
// drifted past the threshold or a different objective won. At most one
// maintenance action runs at a time; a probe that finds one in flight
// yields — the cadence counter keeps running, so the next multiple tries
// again.
func (s *Store) driftCheck() {
	if !s.maintMu.TryLock() {
		return
	}
	ev := s.repartitionRound(false, nil)
	s.recordMaintenance(ev)
	s.maintMu.Unlock()
	s.notifyMaintenance(ev)
}

// Repartition synchronously re-analyzes the live objects' velocities and
// rebuilds the partitions from the result, regardless of the drift
// threshold — the manual maintenance trigger of Section 5.5. It requires the
// Store to be velocity-partitioned already (the bootstrap handles the first
// partitioning) and at least k live objects. Queries keep being
// served while it runs; writers wait for the one rebuild. The outcome is also
// recorded like any other maintenance action (LastMaintenanceError, hook).
func (s *Store) Repartition() error {
	s.maintMu.Lock()
	ev := s.repartitionRound(true, nil)
	s.recordMaintenance(ev)
	s.maintMu.Unlock()
	s.notifyMaintenance(ev)
	return ev.Err
}

// RepartitionTo synchronously rebuilds the partitions under the given
// objective, regardless of the drift threshold, the configured
// objective, and the auto chooser's cost ranking — the operational override
// for pinning an objective on a live store (and the lever the cross-
// objective swap tests drive). Like Repartition it requires the Store to be
// partitioned already and records its outcome as a maintenance action. obj
// must be ObjectiveDVA, ObjectiveSpeed or ObjectiveNone; anything else —
// ObjectiveAuto too, which Repartition runs when configured — is refused with
// ErrUnsupported before any maintenance starts.
func (s *Store) RepartitionTo(obj PartitionObjective) error {
	if !knownObjective(obj) {
		return fmt.Errorf("vpindex: repartition to objective %v: %w", obj, ErrUnsupported)
	}
	s.maintMu.Lock()
	ev := s.repartitionRound(true, &obj)
	s.recordMaintenance(ev)
	s.maintMu.Unlock()
	s.notifyMaintenance(ev)
	return ev.Err
}

// repartitionRound runs one analyze → compare → swap round. force skips
// the drift threshold (the manual triggers); forced additionally pins the
// objective. Caller holds maintMu.
func (s *Store) repartitionRound(force bool, forced *PartitionObjective) MaintenanceEvent {
	ev := MaintenanceEvent{Op: MaintDriftCheck}
	if force {
		ev.Op = MaintRepartition
	}
	if !s.partitioned.Load() {
		ev.Err = fmt.Errorf("vpindex: repartition before the store is partitioned: %w", ErrUnsupported)
		return ev
	}
	sample := s.velocitySample()
	ev.SampleSize = len(sample)
	an, err := s.chooseAnalysis(sample, forced)
	if err != nil {
		ev.Err = fmt.Errorf("vpindex: repartition analysis: %w", err)
		return ev
	}
	ev.Objective = an.Kind
	// Drift of the live partition set against the fresh analysis. An
	// objective or partition-count change reads as core.DriftMax, so a new
	// chooser winner always trips any sane threshold.
	s.mgrMu.RLock()
	ev.Drift = s.mgr.Drift(an)
	s.mgrMu.RUnlock()
	if !force && ev.Drift <= s.cfg.repart.DriftThreshold {
		return ev
	}
	ev.Op = MaintRepartition
	if err := s.swapPartitions(an); err != nil {
		ev.Err = err
		return ev
	}
	ev.Swapped = true
	return ev
}

// velocitySample is what every analysis runs over: the live objects' current
// velocities, DefaultAutoPartitionSample of them at most (see
// core.Manager.VelocitySample).
func (s *Store) velocitySample() []Vec2 {
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.VelocitySample(DefaultAutoPartitionSample)
}

// swapPartitions is the one routine that moves the live population between
// partition sets (see "One swap" on Store) — the bootstrap, drift checks,
// Repartition/RepartitionTo and swap-record replay all call it. The outgoing
// generation is retired as its replacement goes live, so repeated swaps do
// not accumulate dead structures. A failed build or migration leaves the old
// manager serving and frees the fresh pools' frames and pages: no trace of
// the attempt in Stats or on the disk beyond the epoch number it consumed.
func (s *Store) swapPartitions(an core.Analysis) error {
	s.swapping.Store(true)
	defer s.swapping.Store(false)
	s.epoch.Add(1)
	var (
		fresh []*storage.BufferPool
		lerr  error
	)
	mgr, err := s.buildManager(an, &fresh)
	if err == nil {
		s.commitMu.Lock()
		if err = mgr.InsertBulk(s.mgr.Objects()); err == nil {
			s.mgrMu.Lock()
			s.mgr = mgr
			s.mgrMu.Unlock()
			// The swap that first partitions the Store is the bootstrap, not
			// a repartition.
			if s.partitioned.Swap(true) {
				s.repartitions.Add(1)
			}
			lerr = s.logSwap(an)
		}
		s.commitMu.Unlock()
	}
	if err != nil {
		for _, p := range fresh {
			p.Retire()
		}
		return fmt.Errorf("vpindex: partition swap: %w", err)
	}
	s.noteIOFault(lerr)
	s.replacePools(fresh)
	// Re-seed the subscription filter's velocity classes from the new
	// epoch's analysis (no Store lock is held here).
	s.refreshSubClasses()
	return nil
}

// The background tasks, as bits of Store.due: bit i is runDue's task i.
const (
	taskCheckpoint uint32 = 1 << iota
	taskCompact
	taskDrift
	taskScrub
)

// maintain is the maintenance loop, the Store's one goroutine for background
// tasks, which Open starts only with a cadence configured. A writer that
// trips a cadence marks its task due and wakes the loop, as the scrub ticker
// does; Close wakes it to exit and waits for it.
func (s *Store) maintain() {
	defer close(s.done)
	var tick <-chan time.Time // an unreferenced ticker is collected
	if s.dur != nil && s.cfg.scrubEvery > 0 {
		tick = time.Tick(s.cfg.scrubEvery)
	}
	for {
		select {
		case <-s.kick:
		case <-tick:
			s.due.Or(taskScrub)
		}
		if s.closed.Load() {
			return
		}
		s.runDue()
	}
}

// markDue marks a task due and wakes the loop, unless a wake-up is pending.
func (s *Store) markDue(task uint32) {
	s.due.Or(task)
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// runDue runs every task marked due, in task order, on the calling
// goroutine; one marked due again meanwhile waits for the next run. No task
// starts once Close has begun.
func (s *Store) runDue() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.runner.Store(goid())
	defer s.runner.Store(0)
	tasks := s.due.Swap(0)
	for i, task := range [...]func(){
		func() { _ = s.Checkpoint() },
		func() { _ = s.compactCheckpoints() },
		s.driftCheck,
		func() { _ = s.ScrubNow() },
	} {
		if tasks&(1<<i) != 0 && !s.closed.Load() {
			task()
		}
	}
}

// goid returns the calling goroutine's id, from its stack trace's first line
// ("goroutine 42 [running]:"), which tells Close that a run's hook calls it.
func goid() (id uint64) {
	var buf [64]byte
	_, _ = fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d", &id)
	return id
}

// Report upserts one object by ID: a new ID is inserted, a known ID replaces
// its previous record (routing between partitions as the velocity dictates).
// The record's T must carry the report timestamp; the Store never needs the
// previous record from the caller. Only the object's stripe, and the one or
// two partitions the move touches, are locked exclusively.
//
// Report returns an error only when the write itself fails. Maintenance the
// write triggers (the bootstrap, a drift check) runs after the write is
// applied and reports its outcome through LastMaintenanceError and the
// maintenance hook instead.
func (s *Store) Report(o Object) error { return s.reportOne(core.Upsert, o) }

// reportOne is Report and Insert, which differ only in the manager verb: both
// are logged as a plain report record, which replays as the upsert that
// reproduces them, and a successful one then runs the maintenance it
// triggered.
func (s *Store) reportOne(verb core.Verb, o Object) error {
	w := s.writePool.Get().(*write)
	err := s.logged(wal.TypeReport,
		func() (bool, error) { return applied(w.applyOne(verb, o)) },
		func(dst []byte) []byte { return wal.AppendObject(dst, o) })
	w.finish()
	if err == nil {
		s.afterReports(1)
	}
	return err
}

// afterReports runs the maintenance n successfully applied reports trigger:
// the bootstrap trip while an auto-partitioning Store is unpartitioned, and
// once partitioned the policy's cadence, which marks a drift check due each
// time its counter (never reset; atomic.Add gives each caller a unique
// value) crosses a multiple of Every, so a failed check re-arms at the next.
// Maintenance is suppressed during crash recovery — replayed records must
// not launch analyses of their own; partition transitions replay from their
// logged swap records — but the bootstrap's count still advances, so a trip
// left pending by the crash fires on the first post-recovery report.
func (s *Store) afterReports(n int) {
	if n <= 0 {
		return
	}
	recovering := s.dur != nil && s.dur.recovering.Load()
	switch {
	case s.partitioned.Load():
		if every, n := int64(s.cfg.repart.Every), int64(n); every > 0 && !recovering {
			if after := s.reports.Add(n); after/every != (after-n)/every {
				s.markDue(taskDrift)
			}
		}
	case s.cfg.autoN > 0:
		if s.sampled.Add(int64(n)) >= s.nextTrip.Load() && !recovering {
			s.bootstrap()
		}
	}
}

// ReportBatch upserts many objects as one manager Apply: routed in batch
// order, applied to the partitions in parallel (each partition's operations
// in batch order). Records are independent: on error the records that landed
// stay applied, the rejected ones leave their ids as they were, and the first
// failure in batch order is returned. A batch that crosses the auto-partition
// threshold is applied whole first; the bootstrap runs at its end.
func (s *Store) ReportBatch(objs []Object) error {
	if len(objs) == 0 {
		return nil
	}
	w := s.writePool.Get().(*write)
	var (
		landed []Object
		aerr   error
	)
	err := s.logged(wal.TypeReportBatch,
		func() (bool, error) {
			landed, aerr = w.applyBatch(objs)
			return len(landed) > 0, aerr
		},
		func(dst []byte) []byte { return wal.AppendReportBatch(dst, landed) })
	w.finish()
	// The records that landed count toward maintenance unless logging them
	// failed (err is then the log's error, not the apply's). Only landed's
	// length is read: its backing array may be the recycled scratch's.
	if err == aerr {
		s.afterReports(len(landed))
	}
	return err
}

// Remove deletes the object by ID. Returns ErrNotFound (errors.Is-able) when
// no such object is indexed. The object leaves every subscription result
// set it was in.
func (s *Store) Remove(id ObjectID) error {
	w := s.writePool.Get().(*write)
	err := s.logged(wal.TypeRemove,
		func() (bool, error) { return applied(w.applyOne(core.Remove, Object{ID: id})) },
		func(dst []byte) []byte { return wal.AppendRemove(dst, id) })
	w.finish()
	return err
}

// write is one write verb's pooled scratch and its core.Settler: the step
// that runs in each landed record's critical section, under its table stripe,
// to mark the record dirty and reconcile its subscription memberships. The deltas it collects are emitted by finish,
// once the verb holds no lock. Records are always copied in, never aliased to
// caller memory, so a pooled write captures no caller slices.
type write struct {
	s *Store

	// Set for the verb's one manager call (see begin).
	remove bool
	e      *subEngine // non-nil: subscriptions are registered and regMu is held shared
	batch  []Object   // a batch's records and their outcomes; nil for one record
	errs   []error
	now    float64 // a batch's evaluation instant, once timed
	timed  bool

	evs  []MonitorEvent
	grow []Vec2

	landed []Object // a partial batch's records that landed
}

// applyOne is the in-memory half of Report, Insert and Remove, which
// differ only in the manager verb.
func (w *write) applyOne(verb core.Verb, o Object) error {
	w.begin(verb == core.Remove)
	err := w.s.mgr.ApplyOne(verb, o, w)
	w.end()
	return err
}

// applyBatch is ReportBatch's in-memory half: one manager Apply. It returns
// exactly the records that landed — they stay applied on a partial failure,
// and they are what the batch's log record carries — and the first failure in
// batch order.
func (w *write) applyBatch(objs []Object) (landed []Object, err error) {
	if cap(w.errs) < len(objs) {
		w.errs = make([]error, len(objs))
	}
	w.batch, w.errs = objs, w.errs[:len(objs)]
	w.begin(false)
	_, err = w.s.mgr.Apply(core.Upsert, objs, w.errs, w)
	w.end()
	if err == nil {
		return objs, nil
	}
	landed = w.landed[:0]
	for i, o := range objs {
		if w.errs[i] == nil {
			landed = append(landed, o)
		}
	}
	w.landed = landed
	return landed, fmt.Errorf("vpindex: batch report: %w", err)
}

// begin readies w for one manager call. Caller holds the write gate; with
// subscriptions registered, begin takes regMu shared until end, before any
// stripe, so that no lock is taken under a stripe.
func (w *write) begin(remove bool) {
	w.remove = remove
	if e := w.s.subEng.Load(); e != nil && e.nsubs.Load() > 0 {
		e.regMu.RLock()
		if len(e.subs) == 0 {
			e.regMu.RUnlock()
			return
		}
		w.e = e
	}
}

func (w *write) end() {
	if w.e != nil {
		w.e.regMu.RUnlock()
	}
}

// Settled implements core.Settler. A single report is evaluated at its own
// time, a removal at the engine clock, and a batch at one instant: the
// largest time among the records that landed.
func (w *write) Settled(i int, o Object) {
	st := &w.s.stripes[i]
	if st.dirty != nil {
		st.dirty[o.ID] = struct{}{}
	}
	if w.remove {
		if w.e != nil {
			w.evs = append(w.evs, st.rs.Reconcile(o.ID, o, false, w.e.now(), nil, false, nil)...)
		}
		return
	}
	if w.e == nil {
		return
	}
	now := w.now
	switch {
	case w.batch == nil:
		now = w.e.advance(o.T)
	case !w.timed:
		t := math.Inf(-1)
		for j, b := range w.batch {
			if w.errs[j] == nil {
				t = max(t, b.T)
			}
		}
		w.now, w.timed = w.e.advance(t), true
		now = w.now
	}
	var ok bool
	st.cands, ok = w.e.filter.AppendCandidates(st.cands[:0], o, now)
	if !ok {
		w.grow = append(w.grow, o.Vel)
	}
	w.evs = append(w.evs, st.rs.Reconcile(o.ID, o, true, now, st.cands, !ok, w.e.subs)...)
}

// finish emits the deltas the verb collected as one sorted batch, grows the
// filter to the velocities it did not cover, and recycles w. Caller holds no
// Store lock.
func (w *write) finish() {
	if e := w.e; e != nil {
		if len(w.evs) > 0 {
			e.emit(monitor.SortEvents(w.evs))
		}
		e.growFilter(w.grow)
	}
	clear(w.errs)
	w.errs = w.errs[:0]
	w.e, w.batch, w.timed = nil, nil, false
	w.evs, w.grow = w.evs[:0], w.grow[:0]
	w.s.writePool.Put(w)
}

// Get returns the current record for id, touching only its table stripe.
func (s *Store) Get(id ObjectID) (Object, bool) {
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.Get(id)
}

// rangeQueryShape summarizes a validated range query for the cost model:
// the region's half-extents and how far past the issue time it evaluates.
func rangeQueryShape(q RangeQuery) core.QueryShape {
	r := q.Rect
	if q.IsCircle() {
		r = q.Circle.Bound()
	}
	t := q.T0
	if q.Kind != TimeSlice && q.T1 > t {
		t = q.T1
	}
	w := t - q.Now
	if w < 0 {
		w = 0
	}
	return core.QueryShape{HalfW: r.Width() / 2, HalfH: r.Height() / 2, Window: w}
}

// knnQueryShape summarizes a kNN query: no region extent (the search region
// grows from a point), only the prediction window.
func knnQueryShape(q KNNQuery) core.QueryShape {
	w := q.T - q.Now
	if w < 0 {
		w = 0
	}
	return core.QueryShape{Window: w}
}

// observeQueryShape records one observed query in the query-shape log
// (oldest entry overwritten first). Disabled (qlogCap == 0) unless the Store
// runs the auto chooser (WithPartitioner(ObjectiveAuto)), which alone reads
// it.
func (s *Store) observeQueryShape(q core.QueryShape) {
	if s.qlogCap <= 0 {
		return
	}
	s.qmu.Lock()
	if len(s.qlog) < s.qlogCap {
		if s.qlog == nil {
			s.qlog = make([]core.QueryShape, 0, s.qlogCap)
		}
		s.qlog = append(s.qlog, q)
	} else {
		s.qlog[s.qpos] = q
		s.qpos = (s.qpos + 1) % len(s.qlog)
	}
	s.qmu.Unlock()
}

// Search answers a predictive range query, identically in unpartitioned and
// partitioned configurations and during a swap. The query is validated here,
// once; the manager probes its k+1 partition indexes and merges their buffers
// in partition order, so the result is deterministic for a given Store state.
func (s *Store) Search(q RangeQuery) ([]ObjectID, error) {
	ids, err := s.search(q)
	// Reads are never gated by health — a degraded store keeps serving
	// queries — but a read that surfaced a media fault still moves the
	// health state machine.
	s.noteIOFault(err)
	return ids, err
}

// search is Search without the fault classification, for the searches a
// logged verb runs inside its apply: logged classifies apply's error once
// the gate is released, and classifying it here could run a maintenance hook
// — which may Checkpoint or Repartition — under the gate.
func (s *Store) search(q RangeQuery) ([]ObjectID, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s.observeQueryShape(rangeQueryShape(q))
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.Search(q)
}

// SearchKNN returns the k objects nearest the query center at the query's
// evaluation time: the manager probes its most populous partition for the k
// nearest, the others for what lies within that k-th distance, and merges.
// Returns ErrUnsupported if the configured base structure has no kNN
// implementation (both built-in kinds do).
func (s *Store) SearchKNN(q KNNQuery) ([]Neighbor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s.observeQueryShape(knnQueryShape(q))
	s.mgrMu.RLock()
	ns, err := s.mgr.SearchKNN(q)
	s.mgrMu.RUnlock()
	s.noteIOFault(err)
	return ns, err
}

// Len returns the number of live objects.
func (s *Store) Len() int {
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.Len()
}

// Partitioned reports whether the Store's manager was built from a velocity
// analysis (immediately true with an upfront sample; flips true when the
// bootstrap swap completes in auto-partition mode; always false otherwise —
// the manager then runs the unpartitioned objective's single frame).
func (s *Store) Partitioned() bool { return s.partitioned.Load() }

// Analysis returns the velocity analysis that shaped the current partition
// epoch (the bootstrap analysis, or the most recent completed repartition
// swap's) and routes every report, and whether one has run yet; before that
// it is the unpartitioned objective's single frame.
func (s *Store) Analysis() (core.Analysis, bool) {
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.Analysis(), s.partitioned.Load()
}

// BootstrapProgress reports how many reports have been counted toward the
// auto-partition threshold, and the threshold itself. The threshold is the
// currently armed one: after a rejected bootstrap attempt it moves a full
// WithAutoPartition count out, so collected never sits above target while the Store is
// still unpartitioned. After the bootstrap (or when auto-partitioning is off)
// it returns (0, 0).
func (s *Store) BootstrapProgress() (collected, target int) {
	if s.cfg.autoN == 0 || s.partitioned.Load() {
		return 0, 0
	}
	return int(s.sampled.Load()), int(s.nextTrip.Load())
}

// Partitions snapshots the live partition set (empty until partitioned) at
// one instant: one entry per velocity partition, the sizes summing to Len.
func (s *Store) Partitions() []core.PartitionInfo {
	if !s.partitioned.Load() {
		return nil
	}
	s.mgrMu.RLock()
	defer s.mgrMu.RUnlock()
	return s.mgr.Partitions()
}

// StoreStats extends the simulated I/O counters with the Store's
// maintenance counters. IOStats is embedded, so existing callers reading
// Reads/Writes/Hits off Stats() keep working unchanged.
type StoreStats struct {
	IOStats
	// Repartitions counts completed partition swaps (adaptive and manual),
	// not including the bootstrap.
	Repartitions int64
	// PartitionEpoch counts partition generations ever started: 0 while
	// unpartitioned, 1 from the upfront-sample partitioning, +1 at the start
	// of each swap attempt, the bootstrap included (a failed attempt
	// consumes its number and leaves the previous generation serving).
	PartitionEpoch int64
	// SwapInFlight reports whether a partition swap is rebuilding right now
	// (its I/O is landing in the shared counters).
	SwapInFlight bool
}

// Stats returns cumulative simulated I/O counters — the live buffer pools
// (one per partition) plus the folded-in totals of pools retired by past
// swaps — and the maintenance counters. The counters are monotonic
// across swaps.
func (s *Store) Stats() StoreStats {
	s.poolMu.Lock()
	pools := append([]*storage.BufferPool(nil), s.pools...)
	st := StoreStats{IOStats: s.retired}
	s.poolMu.Unlock()
	for _, p := range pools {
		ps := p.Stats()
		st.Reads += ps.Misses
		st.Writes += ps.Writes
		st.Hits += ps.Hits
	}
	st.Repartitions = s.repartitions.Load()
	st.PartitionEpoch = s.epoch.Load()
	st.SwapInFlight = s.swapping.Load()
	return st
}

// Pools snapshots the live buffer pools, one per partition (pools retired by
// swaps are excluded; their counters live on in Stats), for instrumentation.
func (s *Store) Pools() []*storage.BufferPool {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return append([]*storage.BufferPool(nil), s.pools...)
}

// Insert is the strict-create verb: reporting an ID that is already indexed
// returns ErrDuplicate. Application code should prefer Report, the upsert.
func (s *Store) Insert(o Object) error {
	// A successful Insert is logged as a plain report record: the ID was
	// absent, so replaying it as an upsert reproduces the insert exactly.
	return s.reportOne(core.InsertNew, o)
}
