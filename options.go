package vpindex

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// PartitionObjective selects a partitioning objective for a
// velocity-partitioned Store (see WithPartitioner).
type PartitionObjective = core.PartitionerKind

const (
	// ObjectiveDVA partitions by dominant velocity axes — the paper's
	// technique and the default.
	ObjectiveDVA = core.KindDVA
	// ObjectiveSpeed partitions by concentric speed bands with thresholds
	// minimizing the expected query enlargement over the sampled speed
	// distribution.
	ObjectiveSpeed = core.KindSpeed
	// ObjectiveNone keeps a single unpartitioned index inside the
	// partition machinery — the baseline the auto chooser can fall back to.
	ObjectiveNone = core.KindNone
	// ObjectiveAuto is not an objective but the cost-driven chooser among
	// the three: see WithPartitioner. No analysis carries it.
	ObjectiveAuto PartitionObjective = 255
)

// DefaultAutoPartitionSample is the size of the sample every online analysis
// runs over — the bootstrap, drift checks, Repartition and RepartitionTo: the
// current velocities of at most this many live objects, evenly spaced in
// ObjectID order. It matches the paper's analyzer input ("a sample set of
// 10,000 velocities"), and is the bootstrap's report count when velocity
// partitioning is requested without WithVelocitySample or WithAutoPartition.
const DefaultAutoPartitionSample = 10_000

// DefaultDriftThreshold is the axis-drift angle (radians, ~11.5 degrees)
// past which the adaptive repartition policy rebuilds the partitions when
// RepartitionPolicy.DriftThreshold is left zero.
const DefaultDriftThreshold = 0.2

// RepartitionPolicy configures adaptive online repartitioning (Section 5.5
// of the paper: re-run the velocity analyzer when "the dominant direction of
// object travel changes significantly"). Once the Store is partitioned, after
// every Every post-partition reports a fresh analysis of the live objects'
// velocities runs off the write path, and when any live axis has drifted past
// DriftThreshold the Store rebuilds its partitions from the new analysis
// while queries keep being served.
type RepartitionPolicy struct {
	// Every is the check cadence in post-partition reports. <= 0 disables
	// automatic checks; Store.Repartition remains available as the manual
	// trigger.
	Every int
	// DriftThreshold is the largest angle (radians) any live DVA may drift
	// from the matching axis of a fresh analysis before the partitions are
	// rebuilt. <= 0 takes DefaultDriftThreshold.
	DriftThreshold float64
}

// Option configures a Store. Pass any combination to Open; later options
// override earlier ones.
type Option func(*storeConfig)

// storeConfig is the resolved configuration behind Open's functional
// options. searchPar and walSegBytes have no option: the package's tests set
// them through seams in export_test.go, and a production Store runs their
// zero values (GOMAXPROCS query workers, 4 MiB log segments).
type storeConfig struct {
	base baseOptions

	// k > 0, a velocity sample, or an auto-partition threshold all enable
	// velocity partitioning; Open normalizes the trio.
	k      int
	sample []Vec2
	autoN  int

	seed int64

	// objective is the partitioning objective (default ObjectiveDVA;
	// ObjectiveAuto runs the chooser); objectiveSet marks that
	// WithPartitioner was given, which alone enables velocity partitioning.
	objective    PartitionObjective
	objectiveSet bool

	// repart is the adaptive repartitioning policy; maintHook observes
	// maintenance outcomes (the bootstrap, drift checks, swaps).
	repart    RepartitionPolicy
	maintHook func(MaintenanceEvent)

	// shards is the ObjectID-hash stripe count (normalized to >= 1).
	shards    int
	searchPar int

	// eventBuf / eventPolicy configure the Events() subscription stream
	// (see WithEventBuffer).
	eventBuf    int
	eventPolicy BackpressurePolicy

	// Durable-mode knobs (see WithDataDir). dataDir == "" keeps the Store
	// purely in-memory over the simulated MemStore.
	dataDir     string
	syncPol     SyncPolicy
	ckptEvery   int64
	walSegBytes int64
	injector    *FaultInjector

	// scrubEvery is the background integrity scrubber's cadence (0
	// disables it).
	scrubEvery time.Duration

	// compactChain / compactBytes bound the delta-checkpoint chain before a
	// background compaction folds it into a full snapshot (see
	// WithCheckpointCompaction; 0 = unbounded).
	compactChain int
	compactBytes int64
}

// SyncPolicy says when a durable Store's acknowledged writes must reach
// stable storage; build one with SyncAlways, SyncGroupCommit, or SyncNone.
type SyncPolicy = wal.SyncPolicy

// SyncAlways fsyncs the log before every write acknowledgment — full
// durability, one fsync per write (amortized across concurrent writers by
// the group-commit leader election). This is the default for WithDataDir.
func SyncAlways() SyncPolicy { return wal.Always() }

// SyncGroupCommit acknowledges a write only after its log record is fsynced,
// but lets the flush leader linger up to window before syncing so concurrent
// writers share one fsync. Durability of acknowledged writes is preserved;
// latency is traded for throughput.
func SyncGroupCommit(window time.Duration) SyncPolicy { return wal.GroupCommit(window) }

// SyncNone acknowledges writes without waiting for the log to reach disk; a
// crash may lose the tail of acknowledged writes (never corrupting what
// survives). Checkpoints and Close still sync.
func SyncNone() SyncPolicy { return wal.None() }

// FaultInjector simulates kill -9 at a chosen sync point for crash-recovery
// tests: the Nth fsync fails and every later write is refused.
type FaultInjector = storage.FaultInjector

// NewFaultInjector returns an injector that kills the process image at the
// killAtSync-th sync point (1-based); killAtSync <= 0 never kills.
func NewFaultInjector(killAtSync int64) *FaultInjector {
	return storage.NewFaultInjector(killAtSync)
}

// WithKind selects the base index structure for every partition (default
// TPRStar).
func WithKind(k Kind) Option { return func(c *storeConfig) { c.base.Kind = k } }

// WithDomain sets the data space (default 100,000 x 100,000 m, Table 1).
func WithDomain(r Rect) Option { return func(c *storeConfig) { c.base.Domain = r } }

// WithBufferPages sizes the page cache (default n = 50, Table 1). The Store
// has one LRU buffer pool per partition index — one while unpartitioned, k+1
// afterwards — of n × shards frames each, so the total cache is n × shards ×
// (k+1) pages: what the same options gave when every shard had its own pool
// per partition, now in k+1 larger pools. (Making n the Store's total is
// left to a change that may re-base the benchmark's settings.)
func WithBufferPages(n int) Option { return func(c *storeConfig) { c.base.BufferPages = n } }

// WithVelocityPartitioning enables the VP technique with k DVA partitions
// (plus the outlier partition). k <= 0 keeps the paper's default of 2 ("most
// road networks have two dominant traffic directions"). Unless
// WithVelocitySample supplies an upfront sample, the Store bootstraps online:
// it starts unpartitioned and migrates itself once enough velocities have
// been reported (see WithAutoPartition).
func WithVelocityPartitioning(k int) Option {
	return func(c *storeConfig) {
		if k <= 0 {
			k = 2
		}
		c.k = k
	}
}

// WithVelocitySample supplies an upfront velocity sample; the DVA analysis
// runs during Open and the Store is partitioned from the first Report.
// Implies velocity partitioning.
func WithVelocitySample(sample []Vec2) Option {
	return func(c *storeConfig) { c.sample = sample }
}

// WithAutoPartition enables the online bootstrap: the Store starts with its
// partition manager on the unpartitioned objective (one index) and, once n
// reports have been applied, analyzes its live objects' velocities (see
// DefaultAutoPartitionSample) and swaps to a manager built from the result —
// n sets when the bootstrap trips, not the sample. It is the same swap a
// later repartition uses, so queries keep being served throughout, writers
// wait for the one rebuild, and no upfront sample is needed. Implies velocity
// partitioning. n <= 0 uses DefaultAutoPartitionSample. Ignored when
// WithVelocitySample provides a sample.
func WithAutoPartition(n int) Option {
	return func(c *storeConfig) {
		if n <= 0 {
			n = DefaultAutoPartitionSample
		}
		c.autoN = n
	}
}

// WithPartitioner sets the partitioning objective: every analysis — the
// bootstrap, drift checks, manual Repartition — runs that objective's
// partitioner. Implies velocity partitioning (the partition count comes
// from WithVelocityPartitioning, default 2: k DVA partitions plus the
// outlier index, or k speed bands). The default objective is ObjectiveDVA,
// the paper's technique; ObjectiveNone runs the partition machinery with a
// single unpartitioned index. ObjectiveAuto runs every candidate partitioner
// — DVA, speed bands, none — over the velocity sample, scores each against
// the recent query-shape log with the enlargement cost model (see
// core.EstimateCost), and installs the cheapest, with a 10% preference for
// the live objective so near-ties cannot flap the partitions. Open rejects
// any other value with ErrUnsupported.
func WithPartitioner(obj PartitionObjective) Option {
	return func(c *storeConfig) {
		c.objective = obj
		c.objectiveSet = true
	}
}

// WithRepartitionPolicy sets the adaptive repartitioning policy: with
// Every > 0 the Store re-analyzes its live objects' velocities off the write
// path after every Every post-partition reports and rebuilds the partitions
// if the dominant axes drifted past DriftThreshold.
func WithRepartitionPolicy(p RepartitionPolicy) Option {
	return func(c *storeConfig) { c.repart = p }
}

// WithMaintenanceHook observes every completed maintenance action — the
// bootstrap, automatic drift checks, and repartition swaps — with
// its outcome. Maintenance failures never surface through Report or
// ReportBatch (the triggering write is already applied when maintenance
// runs); the hook and LastMaintenanceError are how they are seen. The hook
// is called outside the Store's locks and may itself call Store methods; it
// must be safe for concurrent calls.
func WithMaintenanceHook(h func(MaintenanceEvent)) Option {
	return func(c *storeConfig) { c.maintHook = h }
}

// WithShards stripes the Store's per-object state n ways by ObjectID hash,
// under one lock per stripe — the only id-hashed lock family: each stripe
// holds its objects' id→record table rows, checkpoint dirty set and
// subscription memberships, all updated in the one critical section of a
// write. It does not multiply index structures: a
// Store has one index (and one buffer pool) per partition, k+1 whatever n is,
// and a query probes exactly those. Writes on different stripes overlap their
// table, log and subscription work, and their index updates when the records
// live in different partitions: index-write parallelism is bounded by k+1,
// not by n (see the Store type docs). n <= 0 (the default) uses GOMAXPROCS. n
// also scales the cache, see WithBufferPages.
func WithShards(n int) Option { return func(c *storeConfig) { c.shards = n } }

// WithEventBuffer configures the Store's subscription event stream (see
// Store.Events): n is the channel buffer capacity (n <= 0 takes
// DefaultEventBuffer) and policy says what happens when it fills —
// BlockOnFull (the default) applies back-pressure to the write verbs and
// loses nothing, DropOldest discards the oldest buffered deltas so the
// write path never waits on a slow consumer (Store.DroppedEvents counts
// the losses). The setting takes effect when the stream is created by the
// first Events call.
func WithEventBuffer(n int, policy BackpressurePolicy) Option {
	return func(c *storeConfig) {
		c.eventBuf = n
		c.eventPolicy = policy
	}
}

// WithDataDir makes the Store durable: dir holds a single-file page store
// (pages.dat), a segmented write-ahead log (wal-*.seg), and checkpoint
// snapshots (checkpoint.ckpt). Every acknowledged write verb is logged before
// it is acknowledged (per the SyncPolicy), periodic checkpoints bound the log,
// and a later Open with the same dir recovers the full logical state —
// objects, velocity partitions, and subscriptions — by loading the newest
// checkpoint and replaying the log tail through the normal write paths. The
// dir is created if missing. Call Close to shut the store down cleanly.
func WithDataDir(dir string) Option { return func(c *storeConfig) { c.dataDir = dir } }

// WithSyncPolicy sets when durable writes are acknowledged relative to the
// log fsync (default SyncAlways). Only meaningful with WithDataDir.
func WithSyncPolicy(p SyncPolicy) Option { return func(c *storeConfig) { c.syncPol = p } }

// WithCheckpointEvery checkpoints the Store automatically after every n
// logged records, truncating WAL segments older than the snapshot. n <= 0
// (the default) disables automatic checkpoints; Store.Checkpoint remains the
// manual trigger. Only meaningful with WithDataDir.
func WithCheckpointEvery(n int) Option {
	return func(c *storeConfig) { c.ckptEvery = int64(n) }
}

// WithFaultInjector wires a crash simulator into the durable Store's data
// file and log: at the injector's chosen sync point the fsync fails and all
// later file writes are refused, modeling kill -9 where everything already
// handed to the OS may survive but nothing after does. Only meaningful with
// WithDataDir; used by the crash-recovery tests and vpbench.
func WithFaultInjector(fi *FaultInjector) Option {
	return func(c *storeConfig) { c.injector = fi }
}

// WithScrubEvery starts a background scrubber on a durable Store: every d it
// checksum-verifies each live page of the page file and re-scans the sealed
// WAL segments, quarantining corrupt pages and degrading the store to
// read-only when latent corruption is found — instead of letting a future
// read trip over it. d <= 0 (the default) disables the scrubber; ScrubNow
// remains the manual trigger. Only meaningful with WithDataDir.
func WithScrubEvery(d time.Duration) Option { return func(c *storeConfig) { c.scrubEvery = d } }

// WithCheckpointCompaction bounds a durable Store's delta-checkpoint chain:
// when a checkpoint leaves more than maxChain delta files, or more than
// maxBytes cumulative delta bytes, behind the last full snapshot, a
// background compaction folds the chain into a fresh full snapshot off the
// commit lock. A zero threshold is ignored; passing both as 0 disables
// compaction (the chain grows until the next full checkpoint). Only
// meaningful with WithDataDir.
func WithCheckpointCompaction(maxChain int, maxBytes int64) Option {
	return func(c *storeConfig) {
		c.compactChain = maxChain
		c.compactBytes = maxBytes
	}
}

// WithSeed makes the DVA analysis' clustering deterministic.
func WithSeed(seed int64) Option { return func(c *storeConfig) { c.seed = seed } }

// vpEnabled reports whether any option asked for velocity partitioning.
func (c *storeConfig) vpEnabled() bool {
	return c.k > 0 || len(c.sample) > 0 || c.autoN > 0 || c.objectiveSet
}

// validate rejects the option values that would hang or thrash the Store: a
// domain with a non-finite coordinate (the Bx kNN radius never converges), a
// NaN drift threshold (every drift check would rebuild the partitions), and
// an objective that is neither a partitioner nor ObjectiveAuto.
func (c *storeConfig) validate() error {
	d := c.base.Domain
	for i, v := range [4]float64{d.MinX, d.MinY, d.MaxX, d.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("vpindex: domain %s is %v, want a finite coordinate", [4]string{"MinX", "MinY", "MaxX", "MaxY"}[i], v)
		}
	}
	if math.IsNaN(c.repart.DriftThreshold) {
		return fmt.Errorf("vpindex: repartition drift threshold is NaN")
	}
	if c.objective != ObjectiveAuto && !knownObjective(c.objective) {
		return fmt.Errorf("vpindex: unknown partitioning objective %v: %w", c.objective, ErrUnsupported)
	}
	return nil
}

// normalize fills defaults and reconciles the VP trio.
func (c *storeConfig) normalize() {
	c.base = c.base.withDefaults()
	if c.shards <= 0 {
		c.shards = runtime.GOMAXPROCS(0)
	}
	if c.eventBuf <= 0 {
		c.eventBuf = DefaultEventBuffer
	}
	if !c.vpEnabled() {
		return
	}
	if c.k <= 0 {
		c.k = 2
	}
	if len(c.sample) > 0 {
		c.autoN = 0 // upfront sample wins; nothing to bootstrap
	} else if c.autoN <= 0 {
		c.autoN = DefaultAutoPartitionSample
	}
	if c.repart.DriftThreshold <= 0 {
		c.repart.DriftThreshold = DefaultDriftThreshold
	}
}
