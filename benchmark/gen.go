package main

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/roadnet"
)

// Everything a run feeds the program is drawn here, from the seed alone,
// before any timed phase starts: the population, the analyzer's velocity
// sample, the subscriptions, and the complete op stream of every caller.
// The timed loops index into these slices and never touch an RNG.

var domain = geom.R(0, 0, 100000, 100000)

type opKind uint8

const (
	opReport opKind = iota // Report(objs[at])
	opBatch                // ReportBatch(objs[at : at+n])
	opSearch               // Search(queries[at])
	opKNN                  // SearchKNN(knns[at])
	opRemove               // Remove(objs[at].ID)
	opInsert               // Insert(objs[at])
)

// class groups op kinds into the three latency families the metrics name.
func (k opKind) class() int {
	switch k {
	case opSearch:
		return classSearch
	case opKNN:
		return classKNN
	default:
		return classReport
	}
}

const (
	classReport = iota
	classSearch
	classKNN
	numClasses
)

type op struct {
	kind opKind
	n    uint16 // records carried (0 for queries)
	at   int32  // index into the stream's objs, queries or knns
}

// stream is one caller's pre-drawn op sequence.
type stream struct {
	ops     []op
	objs    []model.Object
	queries []model.RangeQuery
	knns    []model.KNNQuery
}

// countOps is the fixed single-caller op list of the count phase, grouped
// by kind so counter deltas can be read around each group.
type countOps struct {
	reports  []model.Object
	searches []model.RangeQuery
	knns     []model.KNNQuery
}

type inputs struct {
	initial []model.Object
	sample  []geom.Vec2
	subs    []monitor.Subscription
	warm    []model.Object
	count   countOps
	streams [numCallers]*stream
	// maxID is the largest ObjectID any op carries (fresh ids included); the
	// shadow is sized from it.
	maxID model.ObjectID
}

// eventSource yields the population's location updates in time order: one
// roadnet.Traveler per object (all on one seeded RNG, so generation order
// fixes the draw) behind a binary heap of next-event times.
type eventSource struct {
	trs  []*roadnet.Traveler
	next []model.Object
	heap []heapEntry
}

type heapEntry struct {
	t   float64
	idx int32
}

func newEventSource(sp *spec, n int, seed int64) (*eventSource, []model.Object, error) {
	rng := rand.New(rand.NewSource(seed))
	var net *roadnet.Network
	if !sp.uniform {
		cfg, err := roadnet.PresetConfig(roadnet.Chicago, domain, seed)
		if err != nil {
			return nil, nil, err
		}
		if net, err = roadnet.Generate(cfg); err != nil {
			return nil, nil, err
		}
	}
	const offRoadFraction = 0.04 // the outlier population of the road workloads
	src := &eventSource{
		trs:  make([]*roadnet.Traveler, n),
		next: make([]model.Object, n),
		heap: make([]heapEntry, n),
	}
	initial := make([]model.Object, n)
	for i := range src.trs {
		offRoad := net == nil || rng.Float64() < offRoadFraction
		src.trs[i] = roadnet.NewTraveler(net, model.ObjectID(i+1), rng, maxSpeed, offRoad, domain, 0)
		initial[i] = src.trs[i].State()
	}
	for i, tr := range src.trs {
		o, t := tr.NextEvent(maxUpdateIvl)
		src.next[i] = o
		src.heap[i] = heapEntry{t, int32(i)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		src.siftDown(i)
	}
	return src, initial, nil
}

func (s *eventSource) siftDown(i int) {
	h := s.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].t < h[l].t {
			l = r
		}
		if h[i].t <= h[l].t {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// pop returns the next update and the index of the object it belongs to.
func (s *eventSource) pop() (int, model.Object) {
	idx := int(s.heap[0].idx)
	o := s.next[idx]
	nxt, t := s.trs[idx].NextEvent(maxUpdateIvl)
	s.next[idx] = nxt
	s.heap[0].t = t
	s.siftDown(0)
	return idx, o
}

// queryGen draws query shapes; the issue time comes from the op stream.
type queryGen struct{ rng *rand.Rand }

func (g queryGen) center() geom.Vec2 {
	return geom.V(domain.MinX+g.rng.Float64()*domain.Width(), domain.MinY+g.rng.Float64()*domain.Height())
}

func (g queryGen) rangeQuery(kind genKind, now float64) model.RangeQuery {
	c := g.center()
	t0 := now + predictiveTime
	switch kind {
	case genInterval:
		return model.RangeQuery{Kind: model.TimeInterval, Rect: geom.RectFromCenter(c, rectQuerySide/2, rectQuerySide/2),
			Now: now, T0: t0, T1: t0 + intervalLength}
	case genMoving:
		vel := geom.V(g.rng.Float64()*maxSpeed-maxSpeed/2, g.rng.Float64()*maxSpeed-maxSpeed/2)
		return model.RangeQuery{Kind: model.MovingRange, Rect: geom.RectFromCenter(c, rectQuerySide/2, rectQuerySide/2),
			Vel: vel, Now: now, T0: t0, T1: t0 + intervalLength}
	default:
		circle := geom.Circle{C: c, R: queryRadius}
		return model.RangeQuery{Kind: model.TimeSlice, Circle: circle, Rect: circle.Bound(), Now: now, T0: t0}
	}
}

func (g queryGen) knn(now float64) model.KNNQuery {
	return model.KNNQuery{Center: g.center(), K: knnK, Now: now, T: now + predictiveTime}
}

func (g queryGen) subscription(moving bool) monitor.Subscription {
	rect := geom.RectFromCenter(g.center(), rectQuerySide/2, rectQuerySide/2)
	if !moving {
		return monitor.Subscription{Query: model.RangeQuery{Rect: rect}, Horizon: subHorizon}
	}
	vel := geom.V(g.rng.Float64()*maxSpeed-maxSpeed/2, g.rng.Float64()*maxSpeed-maxSpeed/2)
	return monitor.Subscription{
		Query:   model.RangeQuery{Kind: model.MovingRange, Rect: rect, Vel: vel},
		Horizon: subHorizon, Window: 10,
	}
}

// pattern expands a call mix into one shuffled cycle of slots.
func pattern(mix []mixEntry, rng *rand.Rand) []genKind {
	var p []genKind
	for _, m := range mix {
		for i := 0; i < m.calls; i++ {
			p = append(p, m.kind)
		}
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// searchKinds lists the range-query kinds of a mix in proportion, for the
// count phase's fixed query list.
func searchKinds(mix []mixEntry) []genKind {
	var ks []genKind
	for _, m := range mix {
		if m.kind == genSlice || m.kind == genInterval || m.kind == genMoving {
			for i := 0; i < m.calls; i++ {
				ks = append(ks, m.kind)
			}
		}
	}
	return ks
}

// streamBuilder turns the updates routed to one caller into that caller's
// op stream by walking the mix pattern: query slots are filled at the
// current stream time, report slots consume updates.
type streamBuilder struct {
	sp      *spec
	st      *stream
	pat     []genKind
	pos     int
	qg      queryGen
	calls   int
	open    int              // records collected into the batch being filled
	cur     []model.ObjectID // current id of each object this caller owns (replace ops rename)
	fresh   model.ObjectID   // next fresh id, stepping by numCallers
	maxSeen model.ObjectID
}

func (b *streamBuilder) feed(idx int, o model.Object) {
	o.ID = b.cur[idx]
	now := o.T
	for {
		switch k := b.pat[b.pos%len(b.pat)]; k {
		case genReport:
			b.st.objs = append(b.st.objs, o)
			if b.sp.batch <= 1 {
				b.st.ops = append(b.st.ops, op{kind: opReport, n: 1, at: int32(len(b.st.objs) - 1)})
			} else if b.open++; b.open < b.sp.batch {
				return // slot stays open until the batch is full
			} else {
				b.st.ops = append(b.st.ops, op{kind: opBatch, n: uint16(b.open), at: int32(len(b.st.objs) - b.open)})
				b.open = 0
			}
			b.pos++
			b.calls++
			return
		case genReplace:
			old := o
			o.ID = b.fresh
			b.fresh += numCallers
			b.cur[idx] = o.ID
			b.maxSeen = o.ID
			b.st.objs = append(b.st.objs, old, o)
			at := int32(len(b.st.objs) - 2)
			b.st.ops = append(b.st.ops, op{kind: opRemove, n: 1, at: at}, op{kind: opInsert, n: 1, at: at + 1})
			b.pos++
			b.calls += 2
			return
		case genKNN:
			b.st.knns = append(b.st.knns, b.qg.knn(now))
			b.st.ops = append(b.st.ops, op{kind: opKNN, at: int32(len(b.st.knns) - 1)})
			b.pos++
			b.calls++
		default:
			b.st.queries = append(b.st.queries, b.qg.rangeQuery(k, now))
			b.st.ops = append(b.st.ops, op{kind: opSearch, at: int32(len(b.st.queries) - 1)})
			b.pos++
			b.calls++
		}
	}
}

// generate draws every input of one run. callsPerCaller is how many calls
// each caller's stream must hold.
func generate(sp *spec, objects int, seed int64, callsPerCaller int) (*inputs, error) {
	if objects < 100 {
		return nil, fmt.Errorf("benchmark: %d objects is too few", objects)
	}
	src, initial, err := newEventSource(sp, objects, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{initial: initial, maxID: model.ObjectID(objects)}

	// Separate RNG streams per concern, so a change to one input kind does
	// not shift the draws of another.
	sampleRng := rand.New(rand.NewSource(seed ^ 0x5a17))
	sampleN := min(10_000, objects) // the paper's analyzer input size
	in.sample = make([]geom.Vec2, sampleN)
	for i, p := range sampleRng.Perm(objects)[:sampleN] {
		in.sample[i] = initial[p].Vel
	}
	subGen := queryGen{rand.New(rand.NewSource(seed ^ 0x50b5))}
	for i := 0; i < sp.subs; i++ {
		in.subs = append(in.subs, subGen.subscription(sp.mixedSubs && i%2 == 1))
	}

	// Head of the update sequence: the deterministic warm-up and the count
	// phase's reports, then the count phase's queries at the time reached.
	warmN, countN := min(warmRecords, objects), min(countRecords, objects)
	in.warm = make([]model.Object, warmN)
	for i := range in.warm {
		_, in.warm[i] = src.pop()
	}
	in.count.reports = make([]model.Object, countN)
	for i := range in.count.reports {
		_, in.count.reports[i] = src.pop()
	}
	now := in.count.reports[countN-1].T
	countGen := queryGen{rand.New(rand.NewSource(seed ^ 0xc0a7))}
	kinds := searchKinds(sp.mix)
	in.count.searches = make([]model.RangeQuery, countSearches)
	for i := range in.count.searches {
		in.count.searches[i] = countGen.rangeQuery(kinds[i%len(kinds)], now)
	}
	in.count.knns = make([]model.KNNQuery, countKNN)
	for i := range in.count.knns {
		in.count.knns[i] = countGen.knn(now)
	}

	// The rest of the sequence feeds the callers: object i belongs to caller
	// i mod numCallers for the whole run, so one object's reports are always
	// issued by one goroutine, in order.
	pat := pattern(sp.mix, rand.New(rand.NewSource(seed^0x9a77)))
	var builders [numCallers]*streamBuilder
	for c := range builders {
		b := &streamBuilder{
			sp: sp, st: &stream{}, pat: pat, pos: c * len(pat) / numCallers,
			qg:    queryGen{rand.New(rand.NewSource(seed ^ int64(0x9e40+c)))},
			cur:   make([]model.ObjectID, objects),
			fresh: model.ObjectID(objects + 1 + c),
		}
		for i := c; i < objects; i += numCallers {
			b.cur[i] = model.ObjectID(i + 1)
		}
		builders[c] = b
		in.streams[c] = b.st
	}
	for short := numCallers; short > 0; {
		idx, o := src.pop()
		b := builders[idx%numCallers]
		if b.calls >= callsPerCaller {
			continue // this caller's stream is complete; the others still draw
		}
		if b.feed(idx, o); b.calls >= callsPerCaller {
			short--
		}
	}
	for _, b := range builders {
		in.maxID = max(in.maxID, b.maxSeen)
	}
	return in, nil
}
