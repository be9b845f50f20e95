package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	vp "repro"
	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/tprtree"
)

// The traced run measures the layers from outside, from this package's own
// files. The Store is timed at its boundary; below it the benchmark
// assembles the same stack the Store builds — one core.Manager per shard
// over span-recording index wrappers over buffer pools over a
// span-recording PageStore wrapper — and replays the identical op list on
// it. wal and monitor, which hang off the Store verbs beside the index
// stack, are fed the same records next to it (layers.go), and bptree and
// sfc, which sit under bxtree with no interface seam, run as isolated
// kernels on inputs derived from the workload.

type layerID uint8

const (
	layerOp        layerID = iota // one replayed call: the root of its spans
	layerCore                     // core.Manager verb on one shard
	layerIndex                    // bxtree or tprtree verb on one partition
	layerPageRead                 // PageStore.ReadPage under a buffer-pool miss
	layerPageWrite                // PageStore.WritePage under an eviction
	layerPageSync                 // PageStore.Sync
	layerWALAppend
	layerWALCommit
	layerFilter    // monitor.Filter.Candidates
	layerReconcile // monitor.ResultSet.Reconcile
	numLayers
)

var layerNames = [numLayers]string{"op", "core", "index", "pagestore.read", "pagestore.write", "pagestore.sync",
	"wal.append", "wal.commit", "monitor.filter", "monitor.reconcile"}

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; parent is the index of the span that caused this one
// (-1 for a root); op numbers the replayed call both belong to.
type span struct {
	Layer  layerID
	Class  uint8
	Parent int32
	Op     int32
	Start  int64
	End    int64
}

// recorder keeps spans in memory until the run ends. begin and end are safe
// to call from the goroutines a verb fans out to.
type recorder struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	on    atomic.Bool

	op      int32 // number of the call being replayed
	class   uint8
	opSpan  int32 // its root span, -1 while recording is off
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity), opSpan: -1}
}

func (r *recorder) begin(l layerID, parent int32) int32 {
	if !r.on.Load() {
		return -1
	}
	i := r.n.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{Layer: l, Class: r.class, Parent: parent, Op: r.op, Start: time.Since(r.epoch).Nanoseconds()}
	return int32(i)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].End = time.Since(r.epoch).Nanoseconds()
	}
}

// startOp opens the root span of the next replayed call; with on false the
// call runs with recording off, as the untraced half of the overhead pair.
func (r *recorder) startOp(class int, on bool) {
	r.op++
	r.class = uint8(class)
	r.on.Store(on)
	r.opSpan = r.begin(layerOp, -1)
}

func (r *recorder) endOp() {
	r.end(r.opSpan)
	r.on.Store(false)
	r.opSpan = -1
}

func (r *recorder) recorded() []span { return r.spans[:min(int(r.n.Load()), len(r.spans))] }

// tracedIndex wraps one partition's index. cur is the open span of the verb
// running on this partition; at most one runs at a time because the manager
// above gives each partition to one goroutine per verb.
type tracedIndex struct {
	inner model.Index
	rec   *recorder
	shard *tracedShard
	cur   int32
}

func (t *tracedIndex) enter() int32 {
	t.cur = t.rec.begin(layerIndex, t.shard.cur)
	return t.cur
}

func (t *tracedIndex) exit(i int32) {
	t.rec.end(i)
	t.cur = -1
}

func (t *tracedIndex) Insert(o model.Object) error {
	defer t.exit(t.enter())
	return t.inner.Insert(o)
}

func (t *tracedIndex) Delete(o model.Object) error {
	defer t.exit(t.enter())
	return t.inner.Delete(o)
}

func (t *tracedIndex) Update(old, new model.Object) error {
	defer t.exit(t.enter())
	return t.inner.Update(old, new)
}

func (t *tracedIndex) Search(q model.RangeQuery) ([]model.ObjectID, error) {
	defer t.exit(t.enter())
	return t.inner.Search(q)
}

func (t *tracedIndex) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	defer t.exit(t.enter())
	return t.inner.(model.KNNIndex).SearchKNN(q)
}

func (t *tracedIndex) Len() int          { return t.inner.Len() }
func (t *tracedIndex) IO() model.IOStats { return t.inner.IO() }
func (t *tracedIndex) Name() string      { return t.inner.Name() }

// tracedPages wraps the PageStore under one partition's buffer pool: every
// pool gets its own wrapper over the one shared store, so a page access
// knows which index verb caused it.
type tracedPages struct {
	storage.PageStore
	rec   *recorder
	owner *tracedIndex
}

func (p *tracedPages) ReadPage(id storage.PageID, dst *[storage.PageSize]byte) error {
	defer p.rec.end(p.rec.begin(layerPageRead, p.owner.cur))
	return p.PageStore.ReadPage(id, dst)
}

func (p *tracedPages) WritePage(id storage.PageID, src *[storage.PageSize]byte) error {
	defer p.rec.end(p.rec.begin(layerPageWrite, p.owner.cur))
	return p.PageStore.WritePage(id, src)
}

func (p *tracedPages) Sync() error {
	defer p.rec.end(p.rec.begin(layerPageSync, p.owner.cur))
	return p.PageStore.Sync()
}

// tracedShard is one shard of the ladder: a core.Manager and the span of
// the manager verb running on it.
type tracedShard struct {
	mgr *core.Manager
	cur int32
}

// ladder is the benchmark's own copy of the Store's index stack.
type ladder struct {
	rec    *recorder
	disk   storage.PageStore
	shards []*tracedShard
	groups [][]model.Object
}

// shardOf mirrors Store.shardIndex, so that the ladder's shards hold the
// same objects as the Store's.
func shardOf(id model.ObjectID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 % numShards)
}

// newLadder builds the stack for sp from the Store's own analysis and loads
// the live population of the shadow into it.
func newLadder(sp *spec, an core.Analysis, sh *shadow, rec *recorder, dir string) (*ladder, error) {
	ld := &ladder{rec: rec, groups: make([][]model.Object, numShards)}
	if sp.durable {
		fs, err := storage.OpenFileStore(filepath.Join(dir, "ladder-pages.dat"), storage.FileStoreOptions{Truncate: true})
		if err != nil {
			return nil, err
		}
		ld.disk = fs
	} else {
		ld.disk = storage.NewMemStore()
	}
	for i := 0; i < numShards; i++ {
		ts := &tracedShard{cur: -1}
		mgr, err := core.NewManager(an, core.ManagerConfig{Domain: domain}, func(ps core.PartitionSpec) (model.Index, error) {
			ti := &tracedIndex{rec: rec, shard: ts, cur: -1}
			pool := storage.NewBufferPool(&tracedPages{PageStore: ld.disk, rec: rec, owner: ti}, sp.bufferPages)
			var err error
			if sp.kind == vp.Bx {
				ti.inner, err = bxtree.NewTree(pool, bxtree.Config{Domain: ps.Domain})
			} else {
				ti.inner, err = tprtree.NewTree(pool, tprtree.Config{})
			}
			return ti, err
		})
		if err != nil {
			ld.disk.Close()
			return nil, err
		}
		ts.mgr = mgr
		ld.shards = append(ld.shards, ts)
	}
	for id, o := range sh.objs {
		if sh.live[id] {
			ld.groups[shardOf(o.ID)] = append(ld.groups[shardOf(o.ID)], o)
		}
	}
	for i, g := range ld.groups {
		if err := ld.shards[i].mgr.InsertBulk(g); err != nil {
			ld.disk.Close()
			return nil, err
		}
		ld.groups[i] = g[:0]
	}
	return ld, nil
}

// onShard runs one manager verb under a core span.
func (ld *ladder) onShard(i int, f func(m *core.Manager) error) error {
	ts := ld.shards[i]
	ts.cur = ld.rec.begin(layerCore, ld.rec.opSpan)
	err := f(ts.mgr)
	ld.rec.end(ts.cur)
	ts.cur = -1
	return err
}

func (ld *ladder) report(objs []model.Object) error {
	if len(objs) == 1 {
		return ld.onShard(shardOf(objs[0].ID), func(m *core.Manager) error { return m.Report(objs[0]) })
	}
	for _, o := range objs {
		i := shardOf(o.ID)
		ld.groups[i] = append(ld.groups[i], o)
	}
	var first error
	for i, g := range ld.groups {
		if len(g) == 0 {
			continue
		}
		err := ld.onShard(i, func(m *core.Manager) error {
			_, err := m.ReportBatch(g)
			return err
		})
		if err != nil && first == nil {
			first = err
		}
		ld.groups[i] = g[:0]
	}
	return first
}

func (ld *ladder) search(q model.RangeQuery) ([]model.ObjectID, error) {
	var out []model.ObjectID
	for i := range ld.shards {
		err := ld.onShard(i, func(m *core.Manager) error {
			ids, err := m.Search(q)
			out = append(out, ids...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ld *ladder) knn(q model.KNNQuery) ([]model.Neighbor, error) {
	lists := make([][]model.Neighbor, len(ld.shards))
	for i := range ld.shards {
		err := ld.onShard(i, func(m *core.Manager) (err error) {
			lists[i], err = m.SearchKNN(q)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return model.MergeNeighbors(q.K, lists...), nil
}

// tracer owns everything a traced run adds to a run.
type tracer struct {
	cfg runConfig
	in  *inputs
	se  *session
	rec *recorder
	ld  *ladder
	dir string
	an  core.Analysis
	// start is the Store's counters when the traced run's loaded half starts.
	start counters
}

func newTracer(cfg runConfig, in *inputs, se *session, sh *shadow) (*tracer, error) {
	an, ok := se.s.Analysis()
	if !ok {
		return nil, fmt.Errorf("benchmark: the Store is not partitioned")
	}
	t := &tracer{cfg: cfg, in: in, se: se, an: an}
	// Spans per replayed call: a root, one core span per shard, one index
	// span per partition and a handful of page transfers.
	t.rec = newRecorder(64 * (countRecords + countSearches + countKNN))
	var err error
	if t.dir, err = os.MkdirTemp(cfg.dataRoot, "ladder-"); err != nil {
		return nil, err
	}
	if t.ld, err = newLadder(cfg.sp, an, sh, t.rec, t.dir); err != nil {
		os.RemoveAll(t.dir)
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	if t.ld != nil {
		t.ld.disk.Close()
	}
	os.RemoveAll(t.dir)
}

// layerTotals sums, per op class, the time spent in each layer and the part
// of it covered by child spans, over the recorded spans.
type layerTotals struct {
	dur   [numClasses][numLayers]int64
	child [numClasses][numLayers]int64 // time of a layer's spans covered by their children
	count [numClasses][numLayers]int64
}

// cover returns how much of [start,end) the given child intervals cover.
// Children of one span overlap when a verb fans out in parallel.
func cover(kids [][2]int64) int64 {
	slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, hi int64
	for _, k := range kids {
		if k[1] <= hi {
			continue
		}
		total += k[1] - max(k[0], hi)
		hi = k[1]
	}
	return total
}

func totals(spans []span) *layerTotals {
	lt := &layerTotals{}
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		lt.dur[s.Class][s.Layer] += s.End - s.Start
		lt.count[s.Class][s.Layer]++
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for parent, k := range kids {
		p := spans[parent]
		lt.child[p.Class][p.Layer] += cover(k)
	}
	return lt
}

func meanNs(ns []int64, keep func(i int) bool) float64 {
	var sum, n int64
	for i, v := range ns {
		if keep(i) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// replay runs the count phase's op list on the ladder and beside it on the
// wal and monitor layers, then turns spans into the per-layer metrics.
// store is what the same list measured at the Store's boundary.
func (t *tracer) replay(c *countOps, store *counted, res *result) error {
	sp := t.cfg.sp
	lad := runCount(t.ld, c, sp.batch, nil, t.rec, nil)
	if lad.errs > 0 {
		return fmt.Errorf("benchmark: %d ops failed on the layer ladder", lad.errs)
	}
	if err := t.sideLayers(c, res); err != nil {
		return err
	}

	spans := t.rec.recorded()
	lt := totals(spans)
	// Every other call was recorded; per-call figures divide by those.
	tracedCalls := func(class int) float64 {
		n := 0
		for _, on := range lad.traced[class] {
			if on {
				n++
			}
		}
		return float64(max(n, 1))
	}
	us := func(ns int64, class int) float64 { return float64(ns) / 1e3 / tracedCalls(class) }

	index := "bxtree"
	if sp.kind == vp.TPRStar {
		index = "tprtree"
	}
	res.set("core.report_us", us(lt.dur[classReport][layerCore], classReport))
	res.set("core.report_self_us", us(lt.dur[classReport][layerCore]-lt.child[classReport][layerCore], classReport))
	res.set("core.search_us", us(lt.dur[classSearch][layerCore], classSearch))
	res.set("core.search_self_us", us(lt.dur[classSearch][layerCore]-lt.child[classSearch][layerCore], classSearch))
	res.set("core.partitions_per_search", float64(lt.count[classSearch][layerIndex])/tracedCalls(classSearch))
	res.set(index+".update_us", us(lt.dur[classReport][layerIndex], classReport))
	res.set(index+".search_us", us(lt.dur[classSearch][layerIndex], classSearch))
	res.set(index+".search_self_us", us(lt.dur[classSearch][layerIndex]-lt.child[classSearch][layerIndex], classSearch))

	var rd, rdN, wr, wrN, sy, syN int64
	for class := 0; class < numClasses; class++ {
		rd, rdN = rd+lt.dur[class][layerPageRead], rdN+lt.count[class][layerPageRead]
		wr, wrN = wr+lt.dur[class][layerPageWrite], wrN+lt.count[class][layerPageWrite]
		sy, syN = sy+lt.dur[class][layerPageSync], syN+lt.count[class][layerPageSync]
	}
	per := func(ns, n int64) float64 { return float64(ns) / 1e3 / float64(max(n, 1)) }
	res.set("storage.pagestore_read_us", per(rd, rdN))
	res.set("storage.pagestore_write_us", per(wr, wrN))
	res.set("storage.pagestore_sync_us", per(sy, syN))
	res.set("storage.pagestore_syncs", float64(syN))

	// wal and monitor: per call into the layer, and per report call of the
	// workload for the Store's account below.
	rep := lt.dur[classReport]
	repN := lt.count[classReport]
	res.set("wal.append_us", per(rep[layerWALAppend], repN[layerWALAppend]))
	res.set("wal.commit_wait_us", per(rep[layerWALCommit], repN[layerWALCommit]))
	res.set("wal.commits", float64(repN[layerWALCommit]))
	res.set("monitor.filter_us", per(rep[layerFilter], repN[layerFilter]))
	res.set("monitor.reconcile_us", per(rep[layerReconcile], repN[layerReconcile]))
	walUs := per(rep[layerWALAppend]+rep[layerWALCommit], repN[layerWALAppend])
	monitorUs := per(rep[layerFilter]+rep[layerReconcile], repN[layerFilter]) * float64(sp.batch)

	// Store boundary, and what of it the layers below account for. The
	// Store's own share of a verb is its boundary time minus the layers it
	// calls: shard routing, locking, grouping, the id table and the merge.
	all := func(int) bool { return true }
	below := [numClasses]float64{
		classReport: us(lt.dur[classReport][layerCore], classReport) + walUs + monitorUs,
		classSearch: us(lt.dur[classSearch][layerCore], classSearch),
		classKNN:    us(lt.dur[classKNN][layerCore], classKNN),
	}
	var boundary, accounted float64
	for class, name := range [numClasses]string{"report", "search", "knn"} {
		b := meanNs(store.ns[class], all) / 1e3
		res.set("store."+name+"_us", b)
		res.set("store."+name+"_self_us", b-below[class])
		boundary += b * float64(store.calls[class])
		accounted += below[class] * float64(store.calls[class])
	}
	if boundary > 0 {
		res.set("trace.residual_pct", 100*(boundary-accounted)/boundary)
	}

	// Overhead of recording: the ladder ran every other call with recording
	// off; compare the two halves of each group.
	var on, off float64
	for class := 0; class < numClasses; class++ {
		tr := lad.traced[class]
		on += meanNs(lad.ns[class], func(i int) bool { return tr[i] }) * float64(lad.calls[class])
		off += meanNs(lad.ns[class], func(i int) bool { return !tr[i] }) * float64(lad.calls[class])
	}
	if off > 0 {
		res.set("trace.overhead_pct", 100*(on-off)/off)
	}
	if d := t.rec.dropped.Load(); d > 0 {
		res.note("span buffer full: %d spans dropped", d)
	}
	if t.cfg.spansPath != "" {
		if err := writeSpans(t.cfg.spansPath, spans); err != nil {
			return err
		}
	}
	// The ladder's pages and span buffer are not needed past this point.
	t.ld.disk.Close()
	t.ld, t.rec.spans = nil, nil

	t.start = snapshot(t.se.s)
	return nil
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	type row struct {
		Layer   string `json:"layer"`
		Class   uint8  `json:"class"`
		Op      int32  `json:"op"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{layerNames[s.Layer], s.Class, s.Op, i, s.Parent, s.Start, s.End}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// storeCounters reads the counters of the Store's own layers over the
// loaded half of a traced run.
func (t *tracer) storeCounters(res *result, ld *loaded) {
	s := t.se.s
	end := snapshot(s)
	io := end.io.Sub(t.start.io)
	var calls int64
	for _, c := range ld.callers {
		calls += c.calls
	}
	if io.Reads+io.Hits > 0 {
		res.set("storage.pool_hit_ratio", float64(io.Hits)/float64(io.Reads+io.Hits))
	}
	if calls > 0 {
		res.set("storage.page_reads", float64(io.Reads)/float64(calls))
		res.set("storage.page_writes", float64(io.Writes)/float64(calls))
	}
	var retries, poolPages int64
	indexPages := 0
	for _, p := range s.Pools() {
		retries += p.Retries()
		poolPages += int64(p.Capacity())
		indexPages = p.Disk().NumPages() // one store under every pool
	}
	res.set("storage.retries", float64(retries))
	res.set("storage.pool_pages", float64(poolPages))
	res.set("storage.index_pages", float64(indexPages))

	if ing, ok := s.IngestStats(); ok {
		res.set("ingest.coalesced_batches", float64(ing.CoalescedBatches))
		res.set("ingest.flush_barriers", float64(ing.FlushBarriers))
		if ing.CoalescedBatches > 0 {
			res.set("ingest.avg_batch", float64(ing.CoalescedRecords)/float64(ing.CoalescedBatches))
		}
	}
	res.set("subscriptions.dropped_events", float64(s.DroppedEvents()))
	if ld.ckptCalls > 0 {
		res.set("durability.checkpoint_call_ms", float64(ld.ckptNs)/1e6/float64(ld.ckptCalls))
	}

	res.set("core.analyze_ms", float64(t.an.Elapsed.Microseconds())/1e3)
	total, outliers, tauMax := 0, 0, 0.0
	for _, p := range s.Partitions() {
		total += p.Size
		if p.Spec.IsOutlier {
			outliers += p.Size
		}
		tauMax = max(tauMax, p.Tau)
	}
	if total > 0 {
		res.set("core.outlier_share", float64(outliers)/float64(total))
	}
	res.set("core.tau_max", tauMax)
}
