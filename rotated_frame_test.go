package vpindex_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	vpindex "repro"
	"repro/internal/model"
)

// TestRotatedFrameBoundaryExact: a VP Store whose partitions are rotated
// (axes at 0°, 30°, 45° and 60°) answers range queries with objects exactly
// on the region's boundary as the world-frame predicate does, on both trees.
// Per configuration, 40 queries of each kind and shape are issued at
// T = now = 0, each with 5 objects on its boundary: for circles at 3-4-5
// offsets × an integer scale from an integer centre (so the world distance is
// exact), for rectangles on its corners and at the middle of its edges.
// Interval and moving queries start at those positions. An answer must be
// exactly the set the world Matcher accepts over every live record.
func TestRotatedFrameBoundaryExact(t *testing.T) {
	kinds := []struct {
		name string
		kind vpindex.Kind
	}{{"bx", vpindex.Bx}, {"tpr", vpindex.TPRStar}}
	for _, kc := range kinds {
		for _, deg := range []float64{0, 30, 45, 60} {
			angle := deg * math.Pi / 180
			s, err := vpindex.Open(vpindex.WithKind(kc.kind), vpindex.WithVelocityPartitioning(2),
				vpindex.WithVelocitySample(axisSample(400, angle, 7)), vpindex.WithShards(1),
				vpindex.WithBufferPages(1024), vpindex.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			if worst := maxAxisAngle(t, s, angle); worst > 0.05 {
				t.Fatalf("%s %v°: partition axes %.3f rad off the sample's", kc.name, deg, worst)
			}
			rng := rand.New(rand.NewSource(int64(deg) + 1))
			var live []model.Object
			report := func(p vpindex.Vec2) {
				o := vpindex.Object{ID: vpindex.ObjectID(len(live) + 1), Pos: p,
					Vel: axisSample(2, angle, rng.Int63())[len(live)%2]}
				if err := s.Report(o); err != nil {
					t.Fatal(err)
				}
				live = append(live, o)
			}
			var queries []vpindex.RangeQuery
			for i := 0; i < 40; i++ {
				c := vpindex.V(float64(10000+rng.Intn(80000)), float64(10000+rng.Intn(80000)))
				sc := float64(1 + rng.Intn(400))
				circle := vpindex.Circle{C: c, R: 5 * sc}
				for _, d := range [][2]float64{{3, 4}, {-4, 3}, {-3, -4}, {4, -3}, {0, 5}} {
					report(vpindex.V(c.X+d[0]*sc, c.Y+d[1]*sc))
				}
				rect := vpindex.Rect{MinX: c.X - 3*sc, MinY: c.Y - 2*sc, MaxX: c.X + 4*sc, MaxY: c.Y + sc}
				for _, p := range []vpindex.Vec2{{X: rect.MinX, Y: rect.MinY}, {X: rect.MaxX, Y: rect.MaxY},
					{X: rect.MinX, Y: rect.MaxY}, {X: (rect.MinX + rect.MaxX) / 2, Y: rect.MinY}, {X: rect.MaxX, Y: c.Y}} {
					report(p)
				}
				vel := vpindex.V(rng.Float64()*60-30, rng.Float64()*60-30)
				for _, kind := range []vpindex.QueryKind{vpindex.TimeSlice, vpindex.TimeInterval, vpindex.MovingRange} {
					q := vpindex.RangeQuery{Kind: kind, Now: 0, T0: 0}
					if kind != vpindex.TimeSlice {
						q.T1 = 10
					}
					if kind == vpindex.MovingRange {
						q.Vel = vel
					}
					cq, rq := q, q
					cq.Circle, cq.Rect = circle, circle.Bound()
					rq.Rect = rect
					queries = append(queries, cq, rq)
				}
			}
			missed := map[string]int{}
			for qi, q := range queries {
				got, err := s.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(got)
				m := model.NewMatcher(q)
				var want []vpindex.ObjectID
				for _, o := range live {
					if m.Matches(o) {
						want = append(want, o.ID)
					}
				}
				for _, id := range want {
					if _, ok := slices.BinarySearch(got, id); !ok {
						shape := "rect"
						if q.IsCircle() {
							shape = "circle"
						}
						missed[q.Kind.String()+" "+shape]++
					}
				}
				for _, id := range got {
					if !slices.Contains(want, id) {
						t.Errorf("%s %v°, query %d (%+v): object %d reported, the world predicate rejects it", kc.name, deg, qi, q, id)
					}
				}
			}
			for c, n := range missed {
				t.Errorf("%s %v°: %d boundary objects missed by %s queries", kc.name, deg, n, c)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
