package vpindex_test

import (
	"math"
	"math/rand"
	"testing"

	"repro"
)

// TestStoreRejectedWriteLeavesRecordIntact pins the hostile-input contract of
// the ID-keyed write verbs in every partitioning state of the Store: a Report
// of a known ID that the index rejects (non-finite position or velocity)
// must leave the old record exactly where it was — Get, a
// whole-domain Search and Len still show it — and the ID must stay writable:
// a following good Report and a Remove succeed. (A rejected update that
// deletes the old record and does not roll back wedges the ID: the table
// still lists it, the index does not, and every later write of it fails with
// "object not found".) The durable rows repeat the sequence on a data
// directory and reopen it: the rejected writes must not have been logged.
func TestStoreRejectedWriteLeavesRecordIntact(t *testing.T) {
	const n = 60
	domain := vpindex.R(0, 0, 20000, 20000)
	states := []struct {
		name string
		opts []vpindex.Option
		want bool // Partitioned()
	}{
		{"plain", nil, false},
		{"auto-below-threshold", []vpindex.Option{
			vpindex.WithVelocityPartitioning(2), vpindex.WithAutoPartition(10 * n),
		}, false},
		{"partitioned", []vpindex.Option{
			vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(testSample(400, 3)),
		}, true},
	}
	whole := vpindex.RectSliceQuery(domain, 0, 0)
	for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
		for _, st := range states {
			for _, durable := range []bool{false, true} {
				name := kind.String() + "/" + st.name
				if durable {
					name += "/durable"
				}
				t.Run(name, func(t *testing.T) {
					opts := append([]vpindex.Option{
						vpindex.WithKind(kind), vpindex.WithDomain(domain),
						vpindex.WithShards(2), vpindex.WithSeed(3),
					}, st.opts...)
					if durable {
						opts = append(opts, vpindex.WithDataDir(t.TempDir()))
					}
					store, err := vpindex.Open(opts...)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(11))
					objs := make([]vpindex.Object, n)
					for i := range objs {
						objs[i] = testObject(i+1, rng)
						if err := store.Report(objs[i]); err != nil {
							t.Fatal(err)
						}
					}
					if store.Partitioned() != st.want {
						t.Fatalf("Partitioned() = %v, want %v", store.Partitioned(), st.want)
					}
					victim := objs[7]
					// shows asserts the store holds exactly want under the
					// victim's ID and n objects overall, in table and index.
					// Failures do not stop the row, so a wedged ID is reported
					// at every later step it breaks.
					shows := func(s *vpindex.Store, stage string, want vpindex.Object) {
						t.Helper()
						if got, ok := s.Get(victim.ID); !ok || got != want {
							t.Errorf("%s: Get = %+v, %v; want %+v", stage, got, ok, want)
						}
						ids, err := s.Search(whole)
						if err != nil {
							t.Fatal(err)
						}
						found := false
						for _, id := range ids {
							found = found || id == victim.ID
						}
						if !found || len(ids) != n || s.Len() != n {
							t.Errorf("%s: victim in whole-domain Search: %v; Search %d, Len %d, want %d",
								stage, found, len(ids), s.Len(), n)
						}
					}

					nanPos := victim
					nanPos.Pos = vpindex.V(math.NaN(), victim.Pos.Y)
					if err := store.Report(nanPos); err == nil {
						t.Fatal("Report with a NaN position accepted")
					}
					shows(store, "after rejected Report", victim)
					infVel := victim
					infVel.Vel = vpindex.V(victim.Vel.X, math.Inf(1))
					if err := store.Report(infVel); err == nil {
						t.Fatal("Report with an infinite velocity accepted")
					}
					shows(store, "after rejected infinite-velocity Report", victim)

					moved := victim
					moved.Pos = vpindex.V(victim.Pos.X/2, victim.Pos.Y/2)
					if err := store.Report(moved); err != nil {
						t.Errorf("good Report after the rejected writes: %v", err)
					}
					shows(store, "after good Report", moved)
					if !durable {
						if err := store.Remove(victim.ID); err != nil {
							t.Errorf("Remove after the rejected writes: %v", err)
						}
						if _, ok := store.Get(victim.ID); ok || store.Len() != n-1 {
							t.Fatalf("after Remove: still Get-able %v, Len %d", ok, store.Len())
						}
						return
					}
					if err := store.Close(); err != nil {
						t.Fatal(err)
					}
					reopened, err := vpindex.Open(opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer reopened.Close()
					shows(reopened, "after reopen", moved)
					if ds, _ := reopened.DurabilityStats(); ds.ReplayedRecords != n+1 {
						t.Fatalf("replayed %d records, want the %d loads and the good Report, neither rejected write",
							ds.ReplayedRecords, n)
					}
					if err := reopened.Remove(victim.ID); err != nil {
						t.Fatalf("Remove after reopen: %v", err)
					}
					if _, ok := reopened.Get(victim.ID); ok || reopened.Len() != n-1 {
						t.Fatalf("after Remove: still Get-able %v, Len %d", ok, reopened.Len())
					}
				})
			}
		}
	}
}
