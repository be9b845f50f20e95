package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	vp "repro"
	"repro/internal/model"
)

// runConfig is one invocation: a workload, a seed, and how long to measure.
type runConfig struct {
	sp      *spec
	seed    int64
	objects int
	seconds float64
	traced  bool
	// dataRoot is where the run creates its files: the durable workload's
	// data directory and a traced run's scratch files.
	dataRoot string
	// spansPath, if set on a traced run, receives the recorded spans.
	spansPath string
	// flipAnswer corrupts one bit of one query answer before it is checked;
	// the tests use it to prove the correctness check can fail.
	flipAnswer bool
}

// result is what one run measured.
type result struct {
	workload  string
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile
	attempted int64          // calls issued plus answers and records checked
	failed    int64          // calls that returned an error, wrong answers, lost records
	// invalid counts the validity checks of the paced phase that did not
	// hold. The contract line adds them to failed; they are kept apart so
	// that a test at a scale or speed the paced rates were not set for (the
	// race detector) can still require that no op failed.
	invalid int64
	notes   []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// session is one open Store with what the benchmark attached to it.
type session struct {
	s         *vp.Store
	dir       string
	subIDs    []vp.SubscriptionID
	events    atomic.Int64
	stopDrain chan struct{}
	drained   chan struct{}
}

func storeOptions(sp *spec, in *inputs, seed int64, dir string, fi *vp.FaultInjector) []vp.Option {
	opts := []vp.Option{
		vp.WithKind(sp.kind),
		vp.WithVelocityPartitioning(2),
		vp.WithVelocitySample(in.sample),
		vp.WithShards(numShards),
		vp.WithSeed(seed),
		vp.WithBufferPages(sp.bufferPages),
	}
	if sp.durable {
		opts = append(opts,
			vp.WithDataDir(dir),
			vp.WithSyncPolicy(vp.SyncGroupCommit(groupCommitWait)),
			vp.WithCheckpointCompaction(compactChain, 0))
		if fi != nil {
			opts = append(opts, vp.WithFaultInjector(fi))
		}
	}
	if sp.drainEvents {
		// Lossless stream with room for a burst: a full buffer blocks the
		// reporting caller until the drainer catches up.
		opts = append(opts, vp.WithEventBuffer(1<<16, vp.BlockOnFull))
	}
	return opts
}

// setUp opens a Store, loads the population, registers the subscriptions
// and, on a durable workload, writes the first (full) checkpoint. Its wall
// time is one setup_s sample.
func setUp(cfg runConfig, in *inputs, dir string) (*session, time.Duration, error) {
	sp := cfg.sp
	start := time.Now()
	s, err := vp.Open(storeOptions(sp, in, cfg.seed, dir, nil)...)
	if err != nil {
		return nil, 0, err
	}
	se := &session{s: s, dir: dir}
	if sp.drainEvents {
		se.drain()
	}
	for i := 0; i < len(in.initial); i += loadBatch {
		if err := s.ReportBatch(in.initial[i:min(i+loadBatch, len(in.initial))]); err != nil {
			se.close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
	}
	for _, sub := range in.subs {
		id, _, err := s.Subscribe(sub, 0)
		if err != nil {
			se.close()
			return nil, 0, fmt.Errorf("subscribe: %w", err)
		}
		se.subIDs = append(se.subIDs, id)
	}
	if sp.durable {
		if err := s.Checkpoint(); err != nil {
			se.close()
			return nil, 0, fmt.Errorf("first checkpoint: %w", err)
		}
	}
	return se, time.Since(start), nil
}

// drain starts the goroutine that empties Events() and only counts.
func (se *session) drain() {
	ch := se.s.Events()
	se.stopDrain, se.drained = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(se.drained)
		for {
			select {
			case <-ch:
				se.events.Add(1)
			case <-se.stopDrain:
				return
			}
		}
	}()
}

func (se *session) close() {
	if se.stopDrain != nil {
		close(se.stopDrain)
		<-se.drained
		se.stopDrain = nil
	}
	_ = se.s.Close() // the data directory is deleted next; nothing to salvage from an error
	if se.dir != "" {
		os.RemoveAll(se.dir)
	}
}

// target is the verb set the count phase drives: the Store in both modes,
// and the benchmark's own layer ladder on a traced run.
type target interface {
	report(objs []model.Object) error
	search(q model.RangeQuery) ([]model.ObjectID, error)
	knn(q model.KNNQuery) ([]model.Neighbor, error)
}

type storeTarget struct{ s *vp.Store }

func (t storeTarget) report(objs []model.Object) error {
	if len(objs) == 1 {
		return t.s.Report(objs[0])
	}
	return t.s.ReportBatch(objs)
}
func (t storeTarget) search(q model.RangeQuery) ([]model.ObjectID, error) { return t.s.Search(q) }
func (t storeTarget) knn(q model.KNNQuery) ([]model.Neighbor, error)      { return t.s.SearchKNN(q) }

// counted is what one pass over the count phase's op list observed.
type counted struct {
	calls  [numClasses]int
	ns     [numClasses][]int64 // wall time of every call
	errs   int64
	ids    [][]model.ObjectID
	nbrs   [][]model.Neighbor
	marks  [numClasses + 1]counters // counter snapshots around each group
	maxT   float64
	hits   int
	traced [numClasses][]bool // which calls ran with span recording on
}

// counters is a snapshot of every cumulative counter read at group
// boundaries.
type counters struct {
	io      model.IOStats
	walLSN  uint64
	mallocs uint64
}

// runCount executes the count phase's fixed op list on t, one caller, in
// three groups: reports, range queries, kNN queries. snap, if set, reads the
// counters at the group boundaries; rec, if set, records spans on every
// other call so that traced and untraced calls of one group interleave.
func runCount(t target, c *countOps, batch int, snap func() counters, rec *recorder, sh *shadow) *counted {
	out := &counted{}
	mark := func(i int) {
		if snap != nil {
			out.marks[i] = snap()
		}
	}
	timed := func(class, i int, f func() error) {
		on := rec != nil && i%2 == 0
		if rec != nil {
			rec.startOp(class, on)
		}
		start := time.Now()
		err := f()
		out.ns[class] = append(out.ns[class], time.Since(start).Nanoseconds())
		if rec != nil {
			rec.endOp()
		}
		out.traced[class] = append(out.traced[class], on)
		out.calls[class]++
		if err != nil {
			out.errs++
		}
	}
	mark(0)
	for i, n := 0, 0; i < len(c.reports); i, n = i+batch, n+1 {
		objs := c.reports[i:min(i+batch, len(c.reports))]
		timed(classReport, n, func() error {
			err := t.report(objs)
			if err == nil && sh != nil {
				for _, o := range objs {
					sh.set(o)
				}
			}
			return err
		})
		out.maxT = objs[len(objs)-1].T
	}
	mark(1)
	out.ids = make([][]model.ObjectID, len(c.searches))
	for i, q := range c.searches {
		timed(classSearch, i, func() (err error) {
			out.ids[i], err = t.search(q)
			return err
		})
		out.hits += len(out.ids[i])
	}
	mark(2)
	out.nbrs = make([][]model.Neighbor, len(c.knns))
	for i, q := range c.knns {
		timed(classKNN, i, func() (err error) {
			out.nbrs[i], err = t.knn(q)
			return err
		})
	}
	mark(3)
	return out
}

// caller is one of the goroutines that issue the workload's ops.
type caller struct {
	id  int
	st  *stream
	pos int
	s   *vp.Store
	sh  *shadow

	calls  int64
	failed int64
}

var errStreamEnd = errors.New("benchmark: pre-drawn op stream exhausted")

// exec issues one op and returns how many ops it counts for (one per
// reported record, one per query). The shadow is updated after the Store
// acknowledged.
func (c *caller) exec(o op) int {
	var err error
	c.calls++
	n := 1
	switch o.kind {
	case opReport:
		obj := c.st.objs[o.at]
		if err = c.s.Report(obj); err == nil {
			c.sh.set(obj)
		}
	case opBatch:
		objs := c.st.objs[o.at : int(o.at)+int(o.n)]
		n = len(objs)
		if err = c.s.ReportBatch(objs); err == nil {
			for _, obj := range objs {
				c.sh.set(obj)
			}
		}
	case opSearch:
		_, err = c.s.Search(c.st.queries[o.at])
	case opKNN:
		_, err = c.s.SearchKNN(c.st.knns[o.at])
	case opRemove:
		id := c.st.objs[o.at].ID
		if err = c.s.Remove(id); err == nil {
			c.sh.del(id)
		}
	case opInsert:
		obj := c.st.objs[o.at]
		if err = c.s.Insert(obj); err == nil {
			c.sh.set(obj)
		}
	}
	if err != nil {
		c.failed++
	}
	return n
}

// runClosed walks the stream back to back until the deadline, the closed
// loop of the warm-up and saturate phases, and returns how many ops it
// completed. It stops early rather than eat into the last `reserve` ops,
// which later phases need.
func (c *caller) runClosed(deadline time.Time, reserve int) (ops int64) {
	for c.pos < len(c.st.ops)-reserve {
		ops += int64(c.exec(c.st.ops[c.pos]))
		c.pos++
		if !time.Now().Before(deadline) {
			break
		}
	}
	return ops
}

// dueAt is the paced schedule: a pure function of the phase start, the
// per-caller interval, the caller and the op index. Callers are offset so
// their arrivals interleave.
func dueAt(start time.Time, interval time.Duration, callerID, i int) time.Time {
	return start.Add(time.Duration(i)*interval + time.Duration(callerID)*interval/numCallers)
}

// waitUntil sleeps while the due time is far and yields while it is near,
// so that an op is issued within microseconds of being due and background
// goroutines still get the processor.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// pacedLog is one caller's record of a paced phase, indexed by op.
type pacedLog struct {
	lat   []int64 // completion minus due time, ns
	lag   []int64 // how late the generator issued the op once it was due and the caller free, ns
	class []uint8
	// behind is the fewest ops the caller was behind its schedule at any op
	// of the last tenth of the phase: 0 when it caught up at least once,
	// above 0 when a backlog stood or grew to the end. (How far behind the
	// very last op was would count any stall of a few milliseconds that
	// happens to fall there.)
	behind int
}

// runPaced issues n ops on the fixed schedule, open loop: an op that comes
// due while the previous one is still running is issued as soon as the
// caller is free, and its latency counts from when it was due.
func (c *caller) runPaced(start time.Time, interval time.Duration, n int) (*pacedLog, error) {
	log := &pacedLog{lat: make([]int64, n), lag: make([]int64, n), class: make([]uint8, n)}
	free := start
	tail := n - max(n/10, 1)
	for i := 0; i < n; i++ {
		if c.pos >= len(c.st.ops) {
			return nil, errStreamEnd
		}
		o := c.st.ops[c.pos]
		c.pos++
		due := dueAt(start, interval, c.id, i)
		waitUntil(due)
		issued := time.Now()
		c.exec(o)
		done := time.Now()
		log.lat[i] = done.Sub(due).Nanoseconds()
		if free.After(due) {
			log.lag[i] = issued.Sub(free).Nanoseconds()
		} else {
			log.lag[i] = issued.Sub(due).Nanoseconds()
		}
		log.class[i] = uint8(o.kind.class())
		if behind := int(issued.Sub(due) / interval); i == tail || (i > tail && behind < log.behind) {
			log.behind = behind
		}
		free = done
	}
	return log, nil
}

func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowed reports percentile p of one class of calls as the median over
// equal windows of the phase of each window's percentile, in microseconds.
// The phase is cut into as many windows (at most maxWindows) as leave every
// window `need` samples; with fewer than 2*need samples it is one window.
func windowed(logs []*pacedLog, class, need int, p float64) (us float64, samples int) {
	for _, l := range logs {
		for _, c := range l.class {
			if int(c) == class {
				samples++
			}
		}
	}
	windows := min(max(samples/need, 1), maxWindows)
	per := make([][]int64, windows)
	for _, l := range logs {
		for i, c := range l.class {
			if int(c) == class {
				w := i * windows / len(l.class)
				per[w] = append(per[w], l.lat[i])
			}
		}
	}
	var vals []float64
	for _, w := range per {
		if len(w) > 0 {
			slices.Sort(w)
			vals = append(vals, percentile(w, p)/1e3)
		}
	}
	return median(vals), samples
}

// liveHeap is the bytes of reachable heap objects: HeapAlloc right after a
// forced collection. (HeapInuse adds the unused parts of partly filled
// spans, which at a small population outweigh the Store.)
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func snapshot(s *vp.Store) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters{io: s.Stats().IOStats, mallocs: m.Mallocs}
	if d, ok := s.DurabilityStats(); ok {
		c.walLSN = d.WALAppendedLSN
	}
	return c
}

// countMetrics turns the counter deltas around the count phase's groups
// into per-op figures.
func countMetrics(res *result, cnt *counted, c *countOps) {
	records := float64(len(c.reports))
	reportIO := cnt.marks[1].io.Sub(cnt.marks[0].io)
	searchIO := cnt.marks[2].io.Sub(cnt.marks[1].io)
	res.set("report_page_accesses", float64(reportIO.Reads+reportIO.Hits+reportIO.Writes)/records)
	res.set("search_page_accesses", float64(searchIO.Reads+searchIO.Hits)/float64(len(c.searches)))
	res.set("search_page_reads", float64(searchIO.Reads)/float64(len(c.searches)))
	res.set("report_page_io", float64(reportIO.Reads+reportIO.Writes)/records)
	res.set("wal_bytes_per_report", float64(cnt.marks[1].walLSN-cnt.marks[0].walLSN)/records)
	res.set("store.results_per_search", float64(cnt.hits)/float64(len(c.searches)))
	res.set("store.allocs_per_report", float64(cnt.marks[1].mallocs-cnt.marks[0].mallocs)/float64(cnt.calls[classReport]))
	res.set("store.allocs_per_search", float64(cnt.marks[2].mallocs-cnt.marks[1].mallocs)/float64(cnt.calls[classSearch]))
}

// loaded is what the two-caller phases of one run produced.
type loaded struct {
	throughput float64
	logs       []*pacedLog
	callers    []*caller
	ckptCalls  int
	ckptNs     int64
}

// runWorkload is one complete run of one workload.
func runWorkload(cfg runConfig) (*result, error) {
	sp := cfg.sp
	runtime.GOMAXPROCS(maxProcs)
	res := &result{workload: sp.name, metrics: map[string]float64{}, samples: map[string]int{}}

	warmDur := time.Duration(cfg.seconds * warmShare * float64(time.Second))
	satDur := time.Duration(cfg.seconds * saturateShare * float64(time.Second))
	pacedDur := time.Duration(cfg.seconds * pacedShare * float64(time.Second))
	if cfg.traced {
		satDur = 0 // end-to-end numbers come from untraced runs only
	}
	interval := time.Duration(float64(time.Second) * numCallers / sp.pacedCallsPerSec)
	pacedCalls := int(pacedDur / interval)
	calls := int(sp.maxCallsPerSec/numCallers*(warmDur+satDur).Seconds()) + pacedCalls + tailReserve

	genStart := time.Now()
	in, err := generate(sp, cfg.objects, cfg.seed, calls)
	if err != nil {
		return nil, err
	}
	res.note("inputs drawn in %.2fs: %d objects, %d+%d calls pre-drawn", time.Since(genStart).Seconds(),
		len(in.initial), len(in.streams[0].ops), len(in.streams[1].ops))

	// Set-up, several times over: setup_s is the median. The last Store is
	// the one measured.
	dataDir := func(i int) string {
		if !sp.durable {
			return ""
		}
		return filepath.Join(cfg.dataRoot, fmt.Sprintf("%s-%d-%d", sp.name, os.Getpid(), i))
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	sh := newShadow(in.maxID)
	for _, o := range in.initial {
		sh.set(o)
	}
	ref := newReference()
	heapBefore := liveHeap()
	speeds := []float64{ref.speed()}
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var (
		se     *session
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if se != nil {
			se.close()
		}
		var d time.Duration
		if se, d, err = setUp(cfg, in, dataDir(i)); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { se.close() }()
	res.set("setup_s", median(setups))
	s := se.s

	// Deterministic single-caller warm-up: the initial load leaves every
	// object in the first time bucket; this starts the rotation.
	tgt := storeTarget{s}
	for i := 0; i < len(in.warm); i += sp.batch {
		objs := in.warm[i:min(i+sp.batch, len(in.warm))]
		res.attempted++
		if err := tgt.report(objs); err != nil {
			res.failed++
			continue
		}
		for _, o := range objs {
			sh.set(o)
		}
	}

	// Count phase. On a traced run it doubles as the attribution pass: the
	// same op list runs on the Store with boundary timing and then on the
	// benchmark's own layer ladder with spans, both on one processor so that
	// fan-out inside a verb runs inline and a span is processor time.
	var (
		tr  *tracer
		cnt *counted
	)
	if cfg.traced {
		if tr, err = newTracer(cfg, in, se, sh); err != nil {
			return nil, err
		}
		defer tr.close()
		runtime.GOMAXPROCS(1)
	}
	cnt = runCount(tgt, &in.count, sp.batch, func() counters { return snapshot(s) }, nil, sh)
	if cfg.traced {
		if err := tr.replay(&in.count, cnt, res); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(maxProcs)
	}
	for class := 0; class < numClasses; class++ {
		res.attempted += int64(cnt.calls[class])
	}
	res.failed += cnt.errs
	if cfg.flipAnswer && len(cnt.ids) > 0 {
		if len(cnt.ids[0]) > 0 {
			cnt.ids[0][0] ^= 1
		} else {
			cnt.ids[0] = append(cnt.ids[0], 1)
		}
	}
	checked, wrong := verifyAnswers(sh, in.count.searches[:min(verifySearches, len(cnt.ids))],
		cnt.ids, in.count.knns, cnt.nbrs)
	res.attempted += checked
	res.failed += wrong

	countMetrics(res, cnt, &in.count)

	// Subscriptions: a refresh at the time reached, then a sample of result
	// sets against brute-force membership.
	if len(se.subIDs) > 0 {
		start := time.Now()
		res.attempted++
		if _, err := s.RefreshSubscriptions(cnt.maxT); err != nil {
			res.failed++
		}
		res.set("subscriptions.refresh_ms", float64(time.Since(start).Microseconds())/1e3)
		pick := rand.New(rand.NewSource(cfg.seed ^ 0x5b5c))
		for _, i := range pick.Perm(len(se.subIDs))[:min(verifySubs, len(se.subIDs))] {
			res.attempted++
			got, err := s.SubscriptionResults(se.subIDs[i])
			if err != nil || !sameIDs(got, sh.search(in.subs[i].QueryAt(cnt.maxT))) {
				res.failed++
			}
		}
	}

	speeds = append(speeds, ref.speed())
	ld, err := runLoaded(cfg, se, in, sh, res, warmDur, satDur, interval, pacedCalls)
	if err != nil {
		return nil, err
	}
	speeds = append(speeds, ref.speed())
	res.set("loadgen.machine_speed", median(speeds))
	res.note("machine speed against the reference kernel before set-up, before and after the two-caller phases: %.3f", speeds)
	res.set("throughput", ld.throughput)
	for _, m := range []struct {
		name  string
		class int
		need  int
		p     float64
	}{
		{"report_p50_us", classReport, p50WindowNeed, 0.50},
		{"report_p99_us", classReport, p99WindowNeed, 0.99},
		{"search_p50_us", classSearch, p50WindowNeed, 0.50},
		{"search_p99_us", classSearch, p99WindowNeed, 0.99},
		{"knn_p50_us", classKNN, p50WindowNeed, 0.50},
	} {
		v, n := windowed(ld.logs, m.class, m.need, m.p)
		res.set(m.name, v)
		res.samples[m.name] = n
	}
	// Validity of the paced phase. Its latencies mean what their names say
	// only if the callers kept up with the fixed rate and the generator issued
	// ops when they were due; a check that does not hold counts as a failed
	// op, so the run prints correct=false and exits 1 rather than be compared.
	var lags []int64
	backlog := 0
	for _, l := range ld.logs {
		lags = append(lags, l.lag...)
		backlog += l.behind
	}
	slices.Sort(lags)
	lagP50 := percentile(lags, 0.50) / 1e3
	res.set("loadgen.lag_p50_us", lagP50)
	res.set("loadgen.lag_p99_us", percentile(lags, 0.99)/1e3)
	res.set("loadgen.backlog_end", float64(backlog))
	res.attempted += 2
	if backlog > 0 {
		res.invalid++
		res.note("INVALID: the callers never caught up with their schedule in the last tenth of the paced phase (%d ops behind): the fixed rate of %.0f calls/s is above what the program sustained on this machine",
			backlog, sp.pacedCallsPerSec)
	}
	fastest := min(res.metrics["report_p50_us"], res.metrics["search_p50_us"], res.metrics["knn_p50_us"])
	if lagP50 > maxLagShare*fastest {
		res.invalid++
		res.note("INVALID: the generator's median lag of %.2f us is above %.0f %% of the fastest op's p50 (%.2f us)",
			lagP50, 100*maxLagShare, fastest)
	}

	heapAfter := liveHeap()
	res.set("mem_mb", float64(heapAfter-min(heapBefore, heapAfter))/(1<<20))
	// What the first measurement counted must still be alive at the second.
	runtime.KeepAlive(in)
	runtime.KeepAlive(ref)
	runtime.KeepAlive(sh)

	if cfg.traced {
		tr.storeCounters(res, ld)
	}
	if sp.durable {
		if err := recoverAndCrash(cfg, &se, ld.callers[0], in, sh, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runLoaded runs the two-caller phases on the measured Store: a timed
// warm-up, the closed-loop saturate phase and the open-loop paced phase,
// with the event drainer and, on a durable workload, the checkpointer
// running beside the callers.
func runLoaded(cfg runConfig, se *session, in *inputs, sh *shadow, res *result,
	warmDur, satDur, interval time.Duration, pacedCalls int) (*loaded, error) {
	callers := make([]*caller, numCallers)
	for i := range callers {
		callers[i] = &caller{id: i, st: in.streams[i], s: se.s, sh: sh}
	}
	ld := &loaded{callers: callers}

	// The checkpointer stands in for an operator's checkpoint timer. It is
	// the benchmark's goroutine rather than WithCheckpointEvery so that the
	// recover phase can tell when no checkpoint is in flight.
	stopCkpt, ckptDone := make(chan struct{}), make(chan struct{})
	if cfg.sp.durable {
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(time.Duration(cfg.seconds * checkpointShare * float64(time.Second)))
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					start := time.Now()
					if err := se.s.Checkpoint(); err == nil {
						ld.ckptCalls++
						ld.ckptNs += time.Since(start).Nanoseconds()
					}
				}
			}
		}()
	} else {
		close(ckptDone)
	}
	defer func() {
		close(stopCkpt)
		<-ckptDone
	}()

	// closed runs both callers back to back for d, in equal windows, and
	// returns the median over the windows of the ops completed per second: a
	// burst of interference shorter than half the phase does not move it.
	closed := func(d time.Duration, windows int) float64 {
		rates := make([]float64, 0, windows)
		width := d / time.Duration(windows)
		for w := 0; w < windows; w++ {
			var wg sync.WaitGroup
			ops := make([]int64, numCallers)
			start := time.Now()
			for i, c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ops[i] = c.runClosed(start.Add(width), pacedCalls+tailReserve)
				}()
			}
			wg.Wait()
			var n int64
			for _, o := range ops {
				n += o
			}
			if n == 0 { // the streams' share for the closed phases is used up
				break
			}
			rates = append(rates, float64(n)/time.Since(start).Seconds())
		}
		if windows > 1 {
			res.note("saturate windows, ops/s: %.0f", rates)
		}
		return median(rates)
	}
	closed(warmDur, 1)
	if satDur > 0 {
		ld.throughput = closed(satDur, maxWindows)
	}

	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	eventsBefore, reportsBefore := se.events.Load(), reportCalls(callers)
	var (
		wg   sync.WaitGroup
		errs [numCallers]error
	)
	ld.logs = make([]*pacedLog, numCallers)
	start := time.Now().Add(2 * time.Millisecond)
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.logs[i], errs[i] = c.runPaced(start, interval, pacedCalls)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	res.set("runtime.gc_pause_total_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6)
	if n := reportCalls(callers) - reportsBefore; n > 0 {
		res.set("subscriptions.events_per_report", float64(se.events.Load()-eventsBefore)/float64(n)/float64(cfg.sp.batch))
	}
	for _, c := range callers {
		res.attempted += c.calls
		res.failed += c.failed
	}
	return ld, nil
}

// reportCalls counts the report-class ops the callers have walked past.
func reportCalls(callers []*caller) int64 {
	var n int64
	for _, c := range callers {
		for _, o := range c.st.ops[:c.pos] {
			if o.kind == opReport || o.kind == opBatch {
				n++
			}
		}
	}
	return n
}

// nextBatches collects the next n report calls of a stream, skipping other
// ops, and advances past them.
func (c *caller) nextBatches(n int) []op {
	var out []op
	for c.pos < len(c.st.ops) && len(out) < n {
		if o := c.st.ops[c.pos]; o.kind == opBatch || o.kind == opReport {
			out = append(out, o)
		}
		c.pos++
	}
	return out
}

// recoverAndCrash is the recover phase and the crash step of a durable
// workload. It replaces *sep with the last Store it opened.
//
// Recover: with no checkpoint or compaction in flight, log a fixed tail of
// batches, abandon the Store without Close, Open the directory again and
// time it, then require every acknowledged record back from Get.
//
// Crash: the reopened Store carries a fault injector that fails the k-th
// fsync (k from the seed) and refuses every later write, so nothing issued
// after the last completed fsync reaches the files. Batches are reported
// until one fails; the directory is opened a third time and every record
// acknowledged before the failure must be there. The failed batch itself
// was never acknowledged and may or may not have survived.
func recoverAndCrash(cfg runConfig, sep **session, c *caller, in *inputs, sh *shadow, res *result) error {
	se := *sep
	s := se.s
	calls, failed := c.calls, c.failed

	// The checkpointer has stopped. A compaction is pending or running
	// exactly while the delta chain is at its bound, so wait for it to fold.
	if err := s.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		d, _ := s.DurabilityStats()
		if d.DeltaChainLen < compactChain {
			res.set("durability.checkpoints", float64(d.Checkpoints))
			res.set("durability.checkpoint_pause_max_us", float64(d.CheckpointPauseMaxNs)/1e3)
			res.set("durability.checkpoint_bytes", float64(d.CheckpointBytes))
			res.set("durability.delta_chain_len", float64(d.DeltaChainLen))
			res.set("durability.compactions", float64(d.Compactions))
			res.set("wal.segments", float64(d.WALSegments))
			break
		}
		if time.Now().After(deadline) {
			return errors.New("benchmark: checkpoint compaction did not finish")
		}
	}
	for _, o := range c.nextBatches(recoverTail) {
		c.exec(o)
	}
	res.attempted += c.calls - calls
	res.failed += c.failed - failed
	res.set("durability.dir_bytes_per_object", float64(dirBytes(se.dir))/float64(sh.len()))

	// Abandon: no Close, no flush. The drainer, if any, is stopped; the old
	// Store's files stay open until the process exits.
	if se.stopDrain != nil {
		close(se.stopDrain)
		<-se.drained
		se.stopDrain = nil
	}
	k := 3 + rand.New(rand.NewSource(cfg.seed^0xc4a5)).Int63n(12)
	fi := vp.NewFaultInjector(k)
	start := time.Now()
	s2, err := vp.Open(storeOptions(cfg.sp, in, cfg.seed, se.dir, fi)...)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	res.set("recovery_s", time.Since(start).Seconds())
	*sep = &session{s: s2, dir: se.dir}
	if d, ok := s2.DurabilityStats(); ok {
		res.set("durability.replayed_records", float64(d.ReplayedRecords))
	}
	checkRecovered(s2, sh, nil, res)

	// Crash step.
	c2 := &caller{id: 0, st: c.st, pos: c.pos, s: s2, sh: sh}
	var doubt map[model.ObjectID]model.Object
	for _, o := range c2.nextBatches(int(k) + 2) {
		before := c2.failed
		c2.exec(o)
		if c2.failed > before {
			doubt = map[model.ObjectID]model.Object{}
			for _, obj := range c2.st.objs[o.at : int(o.at)+int(o.n)] {
				doubt[obj.ID] = obj
			}
			break
		}
	}
	res.attempted += c2.calls // the injected failure is the step's purpose, not a failed op
	if doubt == nil {
		res.failed++
		res.note("crash step: the injector never fired in %d batches", k+2)
	}
	s3, err := vp.Open(storeOptions(cfg.sp, in, cfg.seed, se.dir, nil)...)
	if err != nil {
		return fmt.Errorf("recover after crash: %w", err)
	}
	*sep = &session{s: s3, dir: se.dir}
	checkRecovered(s3, sh, doubt, res)
	return nil
}

// checkRecovered requires every live shadow record back from Get. A record
// in doubt may also come back as the unacknowledged write.
func checkRecovered(s *vp.Store, sh *shadow, doubt map[model.ObjectID]model.Object, res *result) {
	for id, o := range sh.objs {
		if !sh.live[id] {
			continue
		}
		res.attempted++
		got, ok := s.Get(o.ID)
		if ok && got == o {
			continue
		}
		if d, in := doubt[o.ID]; ok && in && got == d {
			continue
		}
		res.failed++
	}
	if s.Len() != sh.len() {
		res.failed++
	}
}
