package main

import (
	"os"
	"path/filepath"
	"time"

	vp "repro"
	"repro/internal/bptree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/sfc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The layers measured beside the index ladder on a traced run. wal and
// monitor are fed the count phase's report records through their exported
// calls under spans; bptree, sfc and the buffer pool's hit and miss paths
// run as kernels on inputs derived from the workload.

// sideLayers runs every side layer the workload uses and sets their
// count-type metrics; the time-type metrics come from the spans.
func (t *tracer) sideLayers(c *countOps, res *result) error {
	sp := t.cfg.sp
	if sp.durable {
		if err := t.walLayer(c, res); err != nil {
			return err
		}
	}
	if sp.subs > 0 {
		t.monitorLayer(c, res)
	}
	if sp.kind == vp.Bx {
		if err := curveKernels(t.in, c, res); err != nil {
			return err
		}
	}
	return poolKernel(sp, t.dir, res)
}

// walLayer appends and commits the count phase's report calls, encoded as
// the Store encodes them, on a log with the workload's sync policy, then
// replays the log.
func (t *tracer) walLayer(c *countOps, res *result) error {
	dir := filepath.Join(t.dir, "wal")
	w, err := wal.Open(dir, wal.Options{Policy: wal.GroupCommit(groupCommitWait)})
	if err != nil {
		return err
	}
	defer w.Close()
	batch := t.cfg.sp.batch
	records := 0
	for i := 0; i < len(c.reports); i += batch {
		objs := c.reports[i:min(i+batch, len(c.reports))]
		t.rec.startOp(classReport, true)
		a := t.rec.begin(layerWALAppend, t.rec.opSpan)
		lsn, err := w.Append(wal.TypeReportBatch, wal.EncodeReportBatch(objs))
		t.rec.end(a)
		if err == nil {
			cm := t.rec.begin(layerWALCommit, t.rec.opSpan)
			err = w.Commit(lsn)
			t.rec.end(cm)
		}
		t.rec.endOp()
		if err != nil {
			return err
		}
		records += len(objs)
	}
	res.set("wal.bytes_per_record", float64(w.AppendedLSN())/float64(records))
	start := time.Now()
	replayed := 0
	err = w.Replay(0, func(_ uint64, _ wal.Type, p []byte) error {
		objs, err := wal.DecodeReportBatch(p)
		replayed += len(objs)
		return err
	})
	if err != nil {
		return err
	}
	res.set("wal.replay_records_per_s", float64(replayed)/time.Since(start).Seconds())
	return nil
}

// monitorLayer feeds the count phase's report records through a filter and
// a result set built the way the Store's subscription engine builds them.
func (t *tracer) monitorLayer(c *countOps, res *result) {
	var classes []monitor.VelocityClass
	if t.an.Kind == core.KindDVA {
		for _, f := range t.an.Frames {
			if !f.IsOutlier {
				classes = append(classes, monitor.VelocityClass{Axis: f.Axis, Perp: f.Tau})
			}
		}
	}
	subs := make(map[monitor.SubscriptionID]monitor.Subscription, len(t.in.subs))
	filter := monitor.NewFilter(domain, 0)
	filter.SetClasses(classes, subs)
	for i, s := range t.in.subs {
		id := monitor.SubscriptionID(i + 1)
		subs[id] = s
		filter.Add(id, s)
	}
	rs := monitor.NewResultSet()
	var now float64
	var candidates, matches int
	for _, o := range c.reports {
		now = max(now, o.T)
		t.rec.startOp(classReport, true)
		f := t.rec.begin(layerFilter, t.rec.opSpan)
		cands, ok := filter.Candidates(o, now)
		t.rec.end(f)
		r := t.rec.begin(layerReconcile, t.rec.opSpan)
		rs.Reconcile(o.ID, o, true, now, cands, !ok, subs)
		t.rec.end(r)
		t.rec.endOp()
		if !ok {
			filter.Grow(o.Vel, subs)
			continue
		}
		candidates += len(cands)
		for _, id := range cands {
			if monitor.MatchesAt(o, subs[id], now) {
				matches++
			}
		}
	}
	res.set("monitor.candidates_per_report", float64(candidates)/float64(len(c.reports)))
	if candidates > 0 {
		res.set("monitor.matches_per_candidate", float64(matches)/float64(candidates))
	}
}

// gridOrder is the Bx-tree's default curve order, which the workloads use.
const gridOrder = 8

func cellOf(p geom.Vec2) (uint32, uint32) {
	const size = 1 << gridOrder
	clamp := func(v float64) uint32 { return uint32(min(max(v, 0), size-1)) }
	return clamp((p.X - domain.MinX) / domain.Width() * size), clamp((p.Y - domain.MinY) / domain.Height() * size)
}

// curveKernels times sfc window decomposition and the B+-tree verbs the
// Bx-tree is built from: Hilbert keys of the population's positions are
// inserted into a B+-tree, and each count-phase query rectangle, enlarged as
// the Bx-tree enlarges it (half the maximum speed over the predictive time),
// is decomposed into curve intervals and scanned with ScanMany.
func curveKernels(in *inputs, c *countOps, res *result) error {
	curve := sfc.MustHilbert(gridOrder)
	pool := storage.NewBufferPool(storage.NewMemStore(), 1<<16)
	tree, err := bptree.New(pool)
	if err != nil {
		return err
	}
	entry := func(o model.Object) bptree.Entry {
		x, y := cellOf(o.Pos)
		return bptree.Entry{Key: bptree.Key{K: curve.Encode(x, y), ID: o.ID}, Pos: o.Pos, Vel: o.Vel, T: o.T}
	}
	start := time.Now()
	for _, o := range in.initial {
		if err := tree.Insert(entry(o)); err != nil {
			return err
		}
	}
	res.set("bptree.insert_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(in.initial)))
	churn := in.initial[:min(len(in.initial), countRecords)]
	start = time.Now()
	for _, o := range churn {
		if err := tree.Delete(entry(o).Key); err != nil {
			return err
		}
	}
	res.set("bptree.delete_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(churn)))
	for _, o := range churn {
		if err := tree.Insert(entry(o)); err != nil {
			return err
		}
	}

	const maxScanRanges = 16 // bxtree's default scan budget per bucket
	var (
		ivs             []sfc.Interval
		ranges          []bptree.ScanRange
		curveNs, scanNs int64
		nIvs, nRanges   int
	)
	before := pool.Stats()
	for _, q := range c.searches {
		w := q.Region().Expand(maxSpeed / 2 * predictiveTime)
		x0, y0 := cellOf(geom.V(w.MinX, w.MinY))
		x1, y1 := cellOf(geom.V(w.MaxX, w.MaxY))
		start := time.Now()
		ivs = curve.AppendWindow(ivs[:0], x0, y0, x1, y1)
		curveNs += time.Since(start).Nanoseconds()
		nIvs += len(ivs)
		ranges = ranges[:0]
		for _, iv := range sfc.MergeIntervals(ivs, maxScanRanges) {
			ranges = append(ranges, bptree.ScanRange{Lo: iv.Lo, Hi: iv.Hi})
		}
		start = time.Now()
		if err := tree.ScanMany(ranges, func(bptree.Entry) bool { return true }); err != nil {
			return err
		}
		scanNs += time.Since(start).Nanoseconds()
		nRanges += len(ranges)
	}
	after := pool.Stats()
	res.set("sfc.appendwindow_us", float64(curveNs)/1e3/float64(len(c.searches)))
	res.set("sfc.intervals_per_window", float64(nIvs)/float64(len(c.searches)))
	if nRanges > 0 {
		res.set("bptree.scanmany_us_per_range", float64(scanNs)/1e3/float64(nRanges))
		res.set("bptree.pages_per_range", float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(nRanges))
	}
	return nil
}

// poolKernel times BufferPool.Read on a resident page and on a page that
// must come from the workload's kind of PageStore.
func poolKernel(sp *spec, dir string, res *result) error {
	var disk storage.PageStore = storage.NewMemStore()
	if sp.durable {
		fs, err := storage.OpenFileStore(filepath.Join(dir, "kernel-pages.dat"), storage.FileStoreOptions{Truncate: true})
		if err != nil {
			return err
		}
		defer os.Remove(fs.Path())
		disk = fs
	}
	defer disk.Close()
	const resident, pages, reads = 64, 1024, 20_000
	pool := storage.NewBufferPool(disk, resident)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		id, err := pool.Allocate()
		if err != nil {
			return err
		}
		ids[i] = id
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	sink := byte(0)
	read := func(id storage.PageID) error { return pool.Read(id, func(d []byte) { sink += d[0] }) }
	// Misses: a cycle longer than the pool evicts every page before its
	// next use.
	before := pool.Stats()
	start := time.Now()
	for i := 0; i < reads; i++ {
		if err := read(ids[i%pages]); err != nil {
			return err
		}
	}
	missNs := time.Since(start).Nanoseconds()
	misses := pool.Stats().Misses - before.Misses
	// Hits: a cycle shorter than the smallest stripe stays resident.
	hot := ids[:resident/8]
	for _, id := range hot {
		if err := read(id); err != nil {
			return err
		}
	}
	start = time.Now()
	for i := 0; i < reads; i++ {
		if err := read(hot[i%len(hot)]); err != nil {
			return err
		}
	}
	res.set("storage.read_hit_ns", float64(time.Since(start).Nanoseconds())/reads)
	if misses > 0 {
		res.set("storage.read_miss_us", float64(missNs)/1e3/float64(misses))
	}
	_ = sink
	return nil
}
