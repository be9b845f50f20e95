// Package workload reimplements the moving-object index benchmark of Chen,
// Jensen and Lin (PVLDB 2008, [6] in the VP paper) that the paper's entire
// experimental study runs on: populations of linear-motion objects driven
// over road networks (or uniformly, for the synthetic data set), a
// time-ordered update stream respecting a maximum update interval, and
// predictive range query streams. All parameters and defaults follow
// Table 1 of the paper; everything is deterministic under a seed.
package workload

import (
	"container/heap"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/roadnet"
)

// Dataset names a data distribution: one of the four road-network presets
// or the uniform synthetic distribution.
type Dataset string

const (
	Chicago      Dataset = Dataset(roadnet.Chicago)
	SanFrancisco Dataset = Dataset(roadnet.SanFrancisco)
	Melbourne    Dataset = Dataset(roadnet.Melbourne)
	NewYork      Dataset = Dataset(roadnet.NewYork)
	Uniform      Dataset = "uniform"
)

// Datasets lists all five in the paper's order.
func Datasets() []Dataset {
	return []Dataset{Chicago, SanFrancisco, Melbourne, NewYork, Uniform}
}

// Params is the experiment parameter set of Table 1. Bold defaults are
// produced by DefaultParams.
type Params struct {
	Dataset           Dataset
	NumObjects        int     // 100K ... 500K (default 100K)
	MaxSpeed          float64 // 20 ... 200 m/ts (default 100)
	MaxUpdateInterval float64 // 120 ts
	Duration          float64 // 240 ts (600 in one experiment)
	QueryRadius       float64 // 100 ... 1000 m (default 500), circular queries
	RectQuerySide     float64 // 1000 m sides for the rectangular variant
	UseRectQueries    bool
	PredictiveTime    float64 // 0 ... 120 ts (default 60)
	NumQueries        int
	SampleSize        int // velocity sample for the analyzer (paper: 10,000)
	OffRoadFraction   float64
	Seed              int64
	Domain            geom.Rect
}

// DefaultParams returns Table 1's bold settings, with the object count and
// query count scaled by the caller (paper scale: 100000 objects; the test
// suite uses smaller populations).
func DefaultParams(ds Dataset, numObjects int) Params {
	return Params{
		Dataset:           ds,
		NumObjects:        numObjects,
		MaxSpeed:          100,
		MaxUpdateInterval: 120,
		Duration:          240,
		QueryRadius:       500,
		RectQuerySide:     1000,
		PredictiveTime:    60,
		NumQueries:        200,
		SampleSize:        10000,
		OffRoadFraction:   0.04,
		Seed:              42,
		Domain:            geom.R(0, 0, 100000, 100000),
	}
}

func (p Params) withDefaults() Params {
	if p.Domain.IsEmpty() || p.Domain.Area() == 0 {
		p.Domain = geom.R(0, 0, 100000, 100000)
	}
	if p.NumObjects <= 0 {
		p.NumObjects = 1000
	}
	if p.MaxSpeed <= 0 {
		p.MaxSpeed = 100
	}
	if p.MaxUpdateInterval <= 0 {
		p.MaxUpdateInterval = 120
	}
	if p.Duration <= 0 {
		p.Duration = 240
	}
	if p.QueryRadius <= 0 {
		p.QueryRadius = 500
	}
	if p.RectQuerySide <= 0 {
		p.RectQuerySide = 1000
	}
	if p.NumQueries <= 0 {
		p.NumQueries = 100
	}
	if p.SampleSize <= 0 {
		p.SampleSize = 10000
	}
	if p.SampleSize > p.NumObjects {
		p.SampleSize = p.NumObjects
	}
	return p
}

// UpdateEvent is one object update: the record being replaced and its
// replacement (an index processes it as Delete(Old) + Insert(New)).
type UpdateEvent struct {
	T        float64
	Old, New model.Object
}

// Generator produces a deterministic workload: an initial population, a
// time-ordered update stream (pull-based, so paper-scale runs do not
// materialize millions of events), velocity samples, and query streams.
type Generator struct {
	params    Params
	net       *roadnet.Network
	travelers []*roadnet.Traveler
	initial   []model.Object

	// Event heap: one pending event per traveler.
	heap eventHeap
}

// NewGenerator builds the network (if any) and the initial population at
// time 0.
func NewGenerator(p Params) (*Generator, error) {
	p = p.withDefaults()
	g := &Generator{params: p}
	rng := rand.New(rand.NewSource(p.Seed))

	if p.Dataset != Uniform {
		cfg, err := roadnet.PresetConfig(roadnet.Preset(p.Dataset), p.Domain, p.Seed)
		if err != nil {
			return nil, err
		}
		net, err := roadnet.Generate(cfg)
		if err != nil {
			return nil, err
		}
		g.net = net
	}

	g.travelers = make([]*roadnet.Traveler, p.NumObjects)
	g.initial = make([]model.Object, p.NumObjects)
	for i := range g.travelers {
		offRoad := g.net == nil || rng.Float64() < p.OffRoadFraction
		tr := roadnet.NewTraveler(g.net, model.ObjectID(i+1),
			rand.New(rand.NewSource(p.Seed^int64(i*2654435761+1))),
			p.MaxSpeed, offRoad, p.Domain, 0)
		g.travelers[i] = tr
		g.initial[i] = tr.State()
	}
	// Prime the event heap with each traveler's first event.
	g.heap = make(eventHeap, 0, p.NumObjects)
	for i, tr := range g.travelers {
		old := tr.State()
		next, t := tr.NextEvent(p.MaxUpdateInterval)
		heap.Push(&g.heap, pendingEvent{t: t, idx: i, old: old, new: next})
	}
	return g, nil
}

// Params returns the (defaulted) parameter set in effect.
func (g *Generator) Params() Params { return g.params }

// Network returns the underlying road network (nil for Uniform).
func (g *Generator) Network() *roadnet.Network { return g.net }

// Initial returns the population at time 0. The slice is shared; callers
// must not mutate it.
func (g *Generator) Initial() []model.Object { return g.initial }

// VelocitySample returns n velocity points from the initial population (the
// analyzer's input; the paper samples 10,000 velocity points from the
// current workload).
func (g *Generator) VelocitySample(n int) []geom.Vec2 {
	if n > len(g.initial) {
		n = len(g.initial)
	}
	rng := rand.New(rand.NewSource(g.params.Seed + 7))
	out := make([]geom.Vec2, n)
	for i, p := range rng.Perm(len(g.initial))[:n] {
		out[i] = g.initial[p].Vel
	}
	return out
}

// NextUpdate pulls the next update event, or ok=false when the stream has
// passed the workload duration.
func (g *Generator) NextUpdate() (UpdateEvent, bool) {
	for g.heap.Len() > 0 {
		pe := heap.Pop(&g.heap).(pendingEvent)
		if pe.t > g.params.Duration {
			// All later events exceed the duration too (heap order), but
			// other travelers may still have earlier ones; only this
			// traveler is done. Do not reschedule it.
			continue
		}
		tr := g.travelers[pe.idx]
		old := tr.State()
		next, t := tr.NextEvent(g.params.MaxUpdateInterval)
		heap.Push(&g.heap, pendingEvent{t: t, idx: pe.idx, old: old, new: next})
		return UpdateEvent{T: pe.t, Old: pe.old, New: pe.new}, true
	}
	return UpdateEvent{}, false
}

// Queries generates the predictive range query stream: n queries with issue
// times spread uniformly over (0, Duration], each asking about issue time +
// PredictiveTime, centered uniformly in the domain. Circular by default;
// rectangular (RectQuerySide squares) when UseRectQueries is set.
func (g *Generator) Queries(n int) []model.RangeQuery {
	p := g.params
	rng := rand.New(rand.NewSource(p.Seed + 13))
	out := make([]model.RangeQuery, n)
	for i := range out {
		issue := p.Duration * float64(i+1) / float64(n+1)
		c := geom.V(
			p.Domain.MinX+rng.Float64()*p.Domain.Width(),
			p.Domain.MinY+rng.Float64()*p.Domain.Height(),
		)
		q := model.RangeQuery{
			Kind: model.TimeSlice,
			Now:  issue,
			T0:   issue + p.PredictiveTime,
		}
		if p.UseRectQueries {
			q.Rect = geom.RectFromCenter(c, p.RectQuerySide/2, p.RectQuerySide/2)
		} else {
			q.Circle = geom.Circle{C: c, R: p.QueryRadius}
			q.Rect = q.Circle.Bound()
		}
		out[i] = q
	}
	return out
}

// IntervalQueries and MovingQueries produce the other two query types of
// Section 2.1 for the correctness suites and the extension benches.
func (g *Generator) IntervalQueries(n int, length float64) []model.RangeQuery {
	qs := g.Queries(n)
	for i := range qs {
		qs[i].Kind = model.TimeInterval
		qs[i].T1 = qs[i].T0 + length
	}
	return qs
}

// MovingQueries attaches a random velocity to each query region.
func (g *Generator) MovingQueries(n int, length float64) []model.RangeQuery {
	p := g.params
	rng := rand.New(rand.NewSource(p.Seed + 17))
	qs := g.Queries(n)
	for i := range qs {
		qs[i].Kind = model.MovingRange
		qs[i].T1 = qs[i].T0 + length
		qs[i].Vel = geom.V(rng.Float64()*p.MaxSpeed-p.MaxSpeed/2,
			rng.Float64()*p.MaxSpeed-p.MaxSpeed/2)
	}
	return qs
}

// --- event heap ------------------------------------------------------------

type pendingEvent struct {
	t        float64
	idx      int
	old, new model.Object
}

type eventHeap []pendingEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(pendingEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
