package main

import (
	"time"

	vp "repro"
)

// Constants of the harness. They are fixed numbers, not derived from the
// machine, so that results compare across machines: the sandbox this was
// written on has two cores.
const (
	numCallers = 2 // caller goroutines issuing ops
	maxProcs   = 2 // runtime.GOMAXPROCS for every loaded phase
	numShards  = 4 // Store shards on every workload

	defaultObjects = 100_000 // population, paper Table 1
	loadBatch      = 1024    // ReportBatch size of the initial load

	queryRadius    = 500.0  // m, circular time-slice queries (Table 1)
	rectQuerySide  = 1000.0 // m, interval and moving-range queries
	predictiveTime = 60.0   // ts between issue and evaluation (Table 1)
	intervalLength = 30.0   // ts, interval and moving-range query length
	knnK           = 10
	subHorizon     = 30.0 // ts, subscription prediction horizon
	maxSpeed       = 100.0
	maxUpdateIvl   = 120.0

	// Fixed op counts of the count phase (per run, one caller). Counter
	// deltas around them repeat exactly for one seed.
	warmRecords   = 10_000 // single-caller warm-up records before counting
	countRecords  = 5_120  // = 80 batches of 64, or 5,120 single reports
	countSearches = 1_000
	countKNN      = 100
	// How many count-phase answers are compared with the brute-force
	// shadow. Every kNN answer is; a brute-force range scan costs ~1 ms at
	// 100k objects, so range answers are checked on a fixed prefix.
	verifySearches = 300
	verifySubs     = 40

	setupRepeats = 3 // set-ups per untraced run; setup_s is their median

	// Shares of -seconds spent in each timed phase.
	warmShare     = 0.05
	saturateShare = 0.30
	pacedShare    = 0.60

	maxWindows      = 6    // paced phase is cut into at most this many windows
	p50WindowNeed   = 150  // samples a window needs to report a p50
	p99WindowNeed   = 1000 // samples a window needs to report a p99
	maxLagShare     = 0.05 // a run is invalid when the generator's median lag exceeds this share of the fastest op's p50
	checkpointShare = 0.05 // fleet-durable: one Checkpoint() per this share of -seconds
	compactChain    = 4    // delta files folded by a background compaction
	groupCommitWait = 200 * time.Microsecond
	recoverTail     = 100             // batches logged after the last checkpoint, replayed by recover
	tailReserve     = 4 * recoverTail // calls kept back in each stream for the recover phase and crash step
)

// genKind is one slot of a workload's call mix.
type genKind uint8

const (
	genReport   genKind = iota // Report, or ReportBatch(spec.batch) when batch > 1
	genSlice                   // circular time-slice Search
	genInterval                // rectangular time-interval Search
	genMoving                  // moving-range Search
	genKNN                     // SearchKNN(k=10)
	genReplace                 // Remove(id) then Insert of the same vehicle under a fresh id: two calls
)

type mixEntry struct {
	kind  genKind
	calls int
}

// spec is one named workload: what Store it opens and what the callers do.
type spec struct {
	name string

	uniform bool // workload.Uniform instead of the Chicago road network
	kind    vp.Kind
	durable bool // WithDataDir on a real directory: FileStore + WAL + checkpoints

	// bufferPages is WithBufferPages: pages per pool. The Store has
	// numShards x 3 pools (two DVA partitions and the outlier partition per
	// shard), so the cache is 12 x bufferPages pages; README.md gives the
	// measured index size beside it.
	bufferPages int

	subs        int  // standing subscriptions registered during set-up
	mixedSubs   bool // half static rectangles, half moving-range; else all static
	drainEvents bool // open Events() and drain it with one counting goroutine

	batch int // records per report call
	mix   []mixEntry

	// pacedCallsPerSec is the fixed arrival rate of the paced phase, both
	// callers together, in calls (a ReportBatch(64) is one call). It was set
	// once to about a third of the seed commit's saturated call rate on this
	// sandbox and is never derived at run time, so a slower program meets
	// the same load. maxCallsPerSec only sizes the pre-drawn op streams.
	pacedCallsPerSec float64
	maxCallsPerSec   float64
}

var specs = []*spec{
	// Update-dominated durable ingest: wal, durability, storage write-back and
	// bxtree updates do the work; cache is a tenth of the index.
	{
		name:        "fleet-durable",
		kind:        vp.Bx,
		durable:     true,
		bufferPages: 17,
		subs:        200,
		batch:       64,
		mix:         []mixEntry{{genReport, 60}, {genSlice, 30}, {genKNN, 10}},

		pacedCallsPerSec: 260,
		maxCallsPerSec:   1300,
	},
	// Read path in memory with every index page cached: sfc, bptree scan,
	// bxtree refinement, partition fan-out, shard merge; wal and subscriptions
	// idle.
	{
		name:        "dispatch-read",
		kind:        vp.Bx,
		bufferPages: 1024,
		batch:       1,
		mix:         []mixEntry{{genSlice, 45}, {genInterval, 15}, {genMoving, 10}, {genKNN, 20}, {genReport, 10}},

		pacedCallsPerSec: 1600,
		maxCallsPerSec:   8000,
	},
	// Single-record reports against 5,000 standing subscriptions with the
	// event stream drained: subscriptions and monitor filter dominate each
	// report.
	{
		name:        "geofence-stream",
		kind:        vp.Bx,
		bufferPages: 85,
		subs:        5000,
		mixedSubs:   true,
		drainEvents: true,
		batch:       1,
		mix:         []mixEntry{{genReport, 988}, {genSlice, 10}, {genKNN, 2}},

		pacedCallsPerSec: 11000,
		maxCallsPerSec:   60000,
	},
	// Control with no velocity skew on the TPR*-tree and a small cache:
	// bypasses curve, B+-tree and partitioning gains; covers tprtree,
	// eviction, Insert and Remove.
	{
		name:        "uniform-tpr",
		uniform:     true,
		kind:        vp.TPRStar,
		bufferPages: 17,
		batch:       1,
		mix:         []mixEntry{{genReport, 44}, {genSlice, 44}, {genKNN, 2}, {genReplace, 5}},

		pacedCallsPerSec: 2400,
		maxCallsPerSec:   12000,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints, on every workload.
// BENCHMARK.json carries the same list with the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "ops/s"},
	{"report_p50_us", "us"},
	{"search_p50_us", "us"},
	{"knn_p50_us", "us"},
	{"search_page_accesses", "pages/op"},
	{"report_page_accesses", "pages/op"},
	{"mem_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, on every workload; a
// layer the workload does not use reports 0.
var perLayer = []metricDef{
	// End-to-end metrics of the issue that cannot carry a bound under the
	// driver's contract: the two tail latencies do not repeat within any
	// bound it allows in this sandbox, and the other four are 0 or undefined
	// on some workload.
	{"report_p99_us", "us"},
	{"search_p99_us", "us"},
	{"search_page_reads", "pages/op"},
	{"report_page_io", "pages/op"},
	{"wal_bytes_per_report", "B/op"},
	{"recovery_s", "s"},

	{"store.report_us", "us"},
	{"store.report_self_us", "us"},
	{"store.search_us", "us"},
	{"store.search_self_us", "us"},
	{"store.knn_us", "us"},
	{"store.knn_self_us", "us"},
	{"store.allocs_per_report", "1/op"},
	{"store.allocs_per_search", "1/op"},
	{"store.results_per_search", "1/op"},

	{"ingest.coalesced_batches", "count"},
	{"ingest.avg_batch", "1/op"},
	{"ingest.flush_barriers", "count"},

	{"durability.checkpoints", "count"},
	{"durability.checkpoint_pause_max_us", "us"},
	{"durability.checkpoint_bytes", "B"},
	{"durability.delta_chain_len", "count"},
	{"durability.compactions", "count"},
	{"durability.checkpoint_call_ms", "ms"},
	{"durability.dir_bytes_per_object", "B/op"},
	{"durability.replayed_records", "count"},

	{"wal.append_us", "us"},
	{"wal.commit_wait_us", "us"},
	{"wal.commits", "count"},
	{"wal.bytes_per_record", "B/op"},
	{"wal.segments", "count"},
	{"wal.replay_records_per_s", "1/s"},

	{"subscriptions.events_per_report", "1/op"},
	{"subscriptions.dropped_events", "count"},
	{"subscriptions.refresh_ms", "ms"},

	{"monitor.filter_us", "us"},
	{"monitor.reconcile_us", "us"},
	{"monitor.candidates_per_report", "1/op"},
	{"monitor.matches_per_candidate", "ratio"},

	{"core.report_us", "us"},
	{"core.report_self_us", "us"},
	{"core.search_us", "us"},
	{"core.search_self_us", "us"},
	{"core.partitions_per_search", "1/op"},
	{"core.analyze_ms", "ms"},
	{"core.outlier_share", "ratio"},
	{"core.tau_max", "m/ts"},

	{"bxtree.update_us", "us"},
	{"bxtree.search_us", "us"},
	{"bxtree.search_self_us", "us"},
	{"tprtree.update_us", "us"},
	{"tprtree.search_us", "us"},
	{"tprtree.search_self_us", "us"},

	{"bptree.insert_us", "us"},
	{"bptree.delete_us", "us"},
	{"bptree.scanmany_us_per_range", "us"},
	{"bptree.pages_per_range", "pages/op"},
	{"sfc.appendwindow_us", "us"},
	{"sfc.intervals_per_window", "1/op"},

	{"storage.pool_hit_ratio", "ratio"},
	{"storage.page_reads", "pages/op"},
	{"storage.page_writes", "pages/op"},
	{"storage.index_pages", "count"},
	{"storage.pool_pages", "count"},
	{"storage.read_hit_ns", "ns"},
	{"storage.read_miss_us", "us"},
	{"storage.pagestore_read_us", "us"},
	{"storage.pagestore_write_us", "us"},
	{"storage.pagestore_sync_us", "us"},
	{"storage.pagestore_syncs", "count"},
	{"storage.retries", "count"},

	{"loadgen.lag_p50_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.backlog_end", "count"},
	{"loadgen.machine_speed", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
	{"runtime.gc_pause_total_ms", "ms"},
}
