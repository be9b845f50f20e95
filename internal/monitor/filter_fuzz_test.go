package monitor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// TestFilterClampHugeHorizon is the regression test for clampCell converting
// to int before clamping: a horizon of 1e19 under a class bound of 150 gives
// an expanded region of ±1.5e21, whose cell coordinate does not fit in an
// int. On amd64 it converted to MinInt64 and clamped to cell 0, so the
// subscription was registered in cell 0 alone and a slow object that reaches
// it from the middle of the grid was never a candidate.
func TestFilterClampHugeHorizon(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want int
	}{{1e19, 63}, {-1e19, 0}, {math.Inf(1), 63}, {math.Inf(-1), 0}, {math.NaN(), 0}, {63.5, 63}, {62.9, 62}, {0.5, 0}} {
		if got := clampCell(c.v, 64); got != c.want {
			t.Errorf("clampCell(%g, 64) = %d, want %d", c.v, got, c.want)
		}
	}
	s := Subscription{Query: model.RangeQuery{Rect: geom.R(990, 990, 1000, 1000)}, Horizon: 1e19}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	subs := map[SubscriptionID]Subscription{1: s}
	f := NewFilter(geom.R(0, 0, 1000, 1000), 0)
	f.Add(1, s)
	f.Grow(geom.V(100, 0), subs)
	o := model.Object{ID: 1, Pos: geom.V(500, 500), Vel: geom.V(4.95e-17, 4.95e-17)}
	if !MatchesAt(o, s, 0) {
		t.Fatal("the object does not reach the region: the case tests nothing")
	}
	cands, ok := f.Candidates(o, 0)
	if !ok || !slices.Contains(cands, 1) {
		t.Fatalf("Candidates = %v, %v; want subscription 1", cands, ok)
	}
}

// fuzzBytes decodes a fuzz input. A number is one selector byte: bit 7 is
// the sign where the field has one, bits 4–6 pick a magnitude from the
// field's table and bits 0–3 a mantissa 1 + k/16 — except 0xff, which is
// followed by the eight bytes of an arbitrary float64 (non-finite ones read
// as 0). An exhausted input reads as zeros.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzBytes) num(mags *[8]float64, signed bool) float64 {
	c := r.next()
	var v float64
	if c == 0xff {
		var raw [8]byte
		for i := range raw {
			raw[i] = r.next()
		}
		v = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		if !finite(v) {
			v = 0
		}
	} else {
		v = mags[c>>4&7] * (1 + float64(c&15)/16)
		if c&0x80 != 0 {
			v = -v
		}
	}
	if !signed {
		v = math.Abs(v)
	}
	return v
}

// rawNum encodes v for fuzzBytes.num.
func rawNum(v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0xff}, math.Float64bits(v))
}

var (
	fuzzCoords   = [8]float64{1, 10, 100, 500, 1000, 1e4, 1e9, 1e15}
	fuzzSizes    = [8]float64{0.5, 5, 50, 200, 500, 1e3, 1e6, 1e12}
	fuzzHorizons = [8]float64{0, 1, 10, 30, 100, 1e4, 1e9, 1e19}
	fuzzVels     = [8]float64{0, 4.95e-17, 1e-6, 1, 10, 50, 100, 1e4}
	fuzzTimes    = [8]float64{0, 1, 10, 100, 1e3, 1e4, 1e5, 1e6}
)

// FuzzFilterConservative is TestFilterConservative driven by bytes, so the
// fuzzer can reach what a seeded generator does not: circles, rectangles,
// time intervals and moving ranges (windowed or not) with horizons up to
// 1e19 and coordinates up to 1e15 or any float64; zero, one or two DVA
// classes; reports with speeds from 1e-17 to 1e4 and a clock ahead of the
// report time; and removals and explicit Grows between them. The property:
// every subscription MatchesAt accepts is returned by AppendCandidates, or
// ok is false even after Grow.
func FuzzFilterConservative(f *testing.F) {
	// The clampCell case: a 1e19 horizon under a class bound grown to 150.
	seed := []byte{3, 0, 0}
	seed = append(seed, rawNum(995)...)
	seed = append(seed, rawNum(995)...)
	seed = append(seed, rawNum(5)...)
	seed = append(seed, rawNum(1e19)...)
	seed = append(seed, 0, 7) // no classes; Grow
	seed = append(seed, rawNum(100)...)
	seed = append(seed, rawNum(0)...)
	seed = append(seed, 0) // report
	seed = append(seed, rawNum(500)...)
	seed = append(seed, rawNum(500)...)
	seed = append(seed, rawNum(4.95e-17)...)
	seed = append(seed, rawNum(4.95e-17)...)
	seed = append(seed, 0, 0)
	f.Add(seed)
	f.Add([]byte{2, 5, 0x06, 0x31, 0x32, 0x12, 0x31, 0x07, 0x35, 0x36, 0x22, 0x30, 0x21, 0x44, 0x85,
		0x05, 0x40, 0x40, 0x20, 0x31, 0x33, 0x10, 0x02, 0x55, 0xb4, 0x40, 0x45, 0x1, 0x41, 0x39, 0x57,
		2, 40, 0x31, 100, 0x32, 0, 0x33, 0x34, 0x53, 0xd3, 0x41, 0x30, 6, 1, 0, 0x43, 0x22, 0x61, 0x91, 0x52, 0x20})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data}
		fl := NewFilter(geom.R(0, 0, 1000, 1000), [4]int{1, 4, 16, 64}[r.next()%4])
		subs := make(map[SubscriptionID]Subscription)
		for i, n := 0, 1+int(r.next()%12); i < n; i++ {
			kind := r.next()
			c := geom.V(r.num(&fuzzCoords, true), r.num(&fuzzCoords, true))
			size := r.num(&fuzzSizes, false)
			if size == 0 {
				size = 1
			}
			s := Subscription{Horizon: r.num(&fuzzHorizons, false)}
			if kind&1 != 0 {
				s.Query.Circle = geom.Circle{C: c, R: size}
				s.Query.Rect = s.Query.Circle.Bound()
			} else {
				s.Query.Rect = geom.RectFromCenter(c, size, size)
			}
			if kind&2 != 0 {
				s.Window = r.num(&fuzzHorizons, false)
			}
			if kind&4 != 0 {
				s.Query.Kind = model.MovingRange
				s.Query.Vel = geom.V(r.num(&fuzzVels, true), r.num(&fuzzVels, true))
			}
			if s.Validate() != nil {
				continue
			}
			id := SubscriptionID(i + 1)
			subs[id] = s
			fl.Add(id, s)
		}
		if k := int(r.next() % 3); k > 0 {
			classes := make([]VelocityClass, k)
			for i := range classes {
				ang := float64(r.next()) * math.Pi / 128
				classes[i] = VelocityClass{Axis: geom.V(math.Cos(ang), math.Sin(ang)), Perp: r.num(&fuzzVels, false)}
			}
			fl.SetClasses(classes, subs)
		}
		for step := 0; step < 64 && len(r.b) > 0; step++ {
			switch op := r.next() % 8; op {
			case 6:
				id := SubscriptionID(1 + r.next()%12)
				delete(subs, id)
				fl.Remove(id)
				continue
			case 7:
				fl.Grow(geom.V(r.num(&fuzzVels, true), r.num(&fuzzVels, true)), subs)
				continue
			}
			o := model.Object{
				ID:  model.ObjectID(step),
				Pos: geom.V(r.num(&fuzzCoords, true), r.num(&fuzzCoords, true)),
				Vel: geom.V(r.num(&fuzzVels, true), r.num(&fuzzVels, true)),
				T:   r.num(&fuzzTimes, false),
			}
			now := o.T + r.num(&fuzzTimes, false)
			cands, ok := fl.AppendCandidates(nil, o, now)
			if !ok {
				fl.Grow(o.Vel, subs)
				if cands, ok = fl.AppendCandidates(nil, o, now); !ok {
					continue
				}
			}
			sorted := slices.Clone(cands)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(cands) {
				t.Fatalf("step %d: candidates %v list a subscription twice", step, cands)
			}
			for id, s := range subs {
				if MatchesAt(o, s, now) && !slices.Contains(cands, id) {
					t.Fatalf("step %d: filter dropped matching sub %d %+v for %v at now=%g (classes=%d): candidates %v",
						step, id, s, o, now, fl.NumClasses(), cands)
				}
			}
		}
	})
}
