// Package vpindex is a moving-object indexing library implementing the
// velocity partitioning (VP) technique of "Boosting Moving Object Indexing
// through Velocity Partitioning" (Nguyen, He, Zhang, Ward — PVLDB 5(9),
// 2012), together with complete from-scratch implementations of the two
// base indexes the paper builds on: the TPR*-tree (Tao et al., VLDB 2003)
// and the Bx-tree (Jensen et al., VLDB 2004).
//
// # Store: the public API
//
// The package's entry point is the Store, a concurrency-safe facade that
// serves ID-keyed location reports the way a live tracking service does:
//
//	s, _ := vpindex.Open(
//		vpindex.WithKind(vpindex.Bx),
//		vpindex.WithVelocityPartitioning(2),
//		vpindex.WithAutoPartition(10_000),
//	)
//	_ = s.Report(vpindex.Object{ID: 1, Pos: vpindex.V(100, 200), Vel: vpindex.V(10, 0), T: 0})
//	ids, _ := s.Search(vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(400, 200), R: 50}, 0, 30))
//
// Report upserts by ID (no old record needed), Remove deletes by ID,
// ReportBatch amortizes locking across a batch, and Search/SearchKNN answer
// predictive queries in every configuration. Failures are typed — compare
// with errors.Is against ErrNotFound, ErrDuplicate and ErrUnsupported.
//
// # Continuous queries
//
// Standing queries are first-class on the Store: Subscribe registers a
// region plus a prediction horizon, every report incrementally maintains
// the result sets (each object's memberships are reconciled under its own
// table stripe, filtered by a velocity-class spatial grid, so a report only
// tests the subscriptions it could affect), RefreshSubscriptions picks up pure time
// drift, and Events delivers the enter/leave deltas as an ordered
// asynchronous stream with configurable back-pressure (WithEventBuffer).
//
// # Model
//
// Objects are linear movers (Section 2.1 of the paper): a record carries a
// reference position, a velocity, and the reference timestamp; the object
// is assumed to follow that trajectory until it reports an update. Indexes
// answer three kinds of predictive range queries: time-slice, time-interval,
// and moving-range, with circular or rectangular regions, plus kNN.
//
// # Velocity partitioning
//
// With WithVelocityPartitioning, the Store analyzes the workload's
// velocities, discovers the dominant velocity axes (DVAs) with a PCA-guided
// k-means, and maintains one index per DVA — each in a coordinate frame
// rotated so its DVA is the x-axis — plus an outlier index. Objects whose
// direction is near a DVA live in a near-1D velocity space, which slows the
// growth of query search regions from quadratic in the maximum speed to
// near linear (Section 4).
//
// The analysis sample can be supplied upfront (WithVelocitySample) or — the
// production path — taken online: with WithAutoPartition(n), the Store
// starts unpartitioned and, after n reports, analyzes the current velocities
// of its live objects (one each, up to DefaultAutoPartitionSample of them),
// then partitions itself and migrates every live object, with queries
// serving throughout.
//
// The partitions also stay adaptive after the bootstrap (Section 5.5 of
// the paper): a configured policy (WithRepartitionPolicy) periodically
// re-analyzes the live objects' velocities off the write path, rebuilding
// the partitions in one swap when the dominant axes have drifted —
// Store.Repartition is the manual trigger. Maintenance outcomes
// are decoupled from the write verbs: see Store.LastMaintenanceError and
// WithMaintenanceHook.
//
// # Concurrency
//
// The Store has one set of partition indexes — k+1 of them — and one family
// of id-hashed locks: the stripes of the partition manager's id→record table
// (WithShards, default GOMAXPROCS). A stripe guards everything the Store
// keeps per object — the table row, the checkpoint dirty set, the
// subscription memberships — so a write updates all of it in one critical
// section, then locks only the one or two partitions it touches, and writes
// to different partitions run in parallel. A query probes
// the k+1 partitions with a worker pool of GOMAXPROCS goroutines whose merged
// results are byte-identical to the sequential probe order, and sees one
// instant of the whole Store. The full lock order is written once, on
// Store.
//
// # Storage
//
// All indexes store nodes on 4 KB pages behind LRU buffer pools over one
// shared page store — simulated in memory, or the data directory's scratch
// page file with WithDataDir. Every partition has its own pool of
// WithBufferPages × WithShards frames (50 × shards by default), so page-cache
// hits on independent partitions never contend on one pool mutex. Stats
// reports the buffer-pool misses that the paper plots as "query I/O",
// aggregated across all pools.
package vpindex

import (
	"fmt"

	"repro/internal/bxtree"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
	"repro/internal/tprtree"
)

// Re-exported data-model types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Object is a linear-motion moving point.
	Object = model.Object
	// ObjectID identifies an object.
	ObjectID = model.ObjectID
	// RangeQuery is a predictive range query (see model.RangeQuery).
	RangeQuery = model.RangeQuery
	// QueryKind distinguishes time-slice / time-interval / moving-range.
	QueryKind = model.QueryKind
	// IOStats aggregates simulated disk counters.
	IOStats = model.IOStats
	// KNNQuery asks for the K nearest objects at a future time.
	KNNQuery = model.KNNQuery
	// Neighbor is one kNN result (id + distance).
	Neighbor = model.Neighbor
	// Vec2 is a 2-D vector or point.
	Vec2 = geom.Vec2
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Circle is a disk-shaped query region.
	Circle = geom.Circle
)

// Query kinds.
const (
	TimeSlice    = model.TimeSlice
	TimeInterval = model.TimeInterval
	MovingRange  = model.MovingRange
)

// V constructs a Vec2.
func V(x, y float64) Vec2 { return geom.V(x, y) }

// R constructs a Rect from two corners (normalized).
func R(x0, y0, x1, y1 float64) Rect { return geom.R(x0, y0, x1, y1) }

// SliceQuery builds a circular time-slice query issued at now about time t.
func SliceQuery(c Circle, now, t float64) RangeQuery {
	return RangeQuery{Kind: TimeSlice, Circle: c, Rect: c.Bound(), Now: now, T0: t}
}

// RectSliceQuery builds a rectangular time-slice query.
func RectSliceQuery(r Rect, now, t float64) RangeQuery {
	return RangeQuery{Kind: TimeSlice, Rect: r, Now: now, T0: t}
}

// IntervalQuery builds a rectangular time-interval query over [t0, t1].
func IntervalQuery(r Rect, now, t0, t1 float64) RangeQuery {
	return RangeQuery{Kind: TimeInterval, Rect: r, Now: now, T0: t0, T1: t1}
}

// MovingQuery builds a moving range query: the region starts at r at t0 and
// translates with velocity vel until t1.
func MovingQuery(r Rect, vel Vec2, now, t0, t1 float64) RangeQuery {
	return RangeQuery{Kind: MovingRange, Rect: r, Vel: vel, Now: now, T0: t0, T1: t1}
}

// Kind selects the base index structure.
type Kind int

const (
	// TPRStar is the TPR*-tree (R-tree family).
	TPRStar Kind = iota
	// Bx is the Bx-tree (B+-tree over a space-filling curve).
	Bx
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TPRStar:
		return "tpr*"
	case Bx:
		return "bx"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// baseOptions carries the base-index settings shared by every partition.
// The zero value takes the paper's defaults.
type baseOptions struct {
	// Kind selects the base structure (default TPRStar).
	Kind Kind
	// Domain is the data space (default 100,000 x 100,000 m, Table 1).
	Domain Rect
	// BufferPages sizes each LRU buffer pool (default 50, Table 1).
	BufferPages int
}

func (o baseOptions) withDefaults() baseOptions {
	if o.Domain.IsEmpty() || o.Domain.Area() == 0 {
		o.Domain = geom.R(0, 0, 100000, 100000)
	}
	if o.BufferPages <= 0 {
		o.BufferPages = storage.DefaultBufferPages
	}
	return o
}

// buildBase constructs the configured base index over the given pool.
func buildBase(pool *storage.BufferPool, opts baseOptions, domain Rect) (model.Index, error) {
	switch opts.Kind {
	case TPRStar:
		return tprtree.NewTree(pool, tprtree.Config{})
	case Bx:
		return bxtree.NewTree(pool, bxtree.Config{Domain: domain})
	default:
		return nil, fmt.Errorf("vpindex: unknown index kind %v: %w", opts.Kind, ErrUnsupported)
	}
}

// Continuous-query types: standing subscriptions with incremental
// enter/leave events as reports stream in. The Store serves them natively —
// Subscribe/Unsubscribe/SubscriptionResults/RefreshSubscriptions/Events —
// with striped incremental evaluation and a coarse velocity-class spatial
// filter, so the cost per report is proportional to the subscriptions the
// report could actually affect (see subscriptions.go).
type (
	// Subscription is a standing region + prediction horizon.
	Subscription = monitor.Subscription
	// MonitorEvent is one result-set delta (enter/leave).
	MonitorEvent = monitor.Event
	// SubscriptionID identifies a standing query.
	SubscriptionID = monitor.SubscriptionID
)

// Subscription event kinds.
const (
	Enter = monitor.Enter
	Leave = monitor.Leave
)
