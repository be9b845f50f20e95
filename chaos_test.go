package vpindex_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	vpindex "repro"
)

// The chaos oracle: drive a durable Store through a randomized write/read
// workload under a seeded probabilistic fault schedule, then reopen the data
// directory with a clean injector and require that no acknowledged write was
// silently lost. Every object id carries a shadow candidate list:
//
//   - an acknowledged Report/Remove resets the list to exactly that outcome
//     (SyncAlways: an ack means the record is on stable storage);
//   - a failed write APPENDS its would-be outcome (the record may or may not
//     have reached the log before the fault — both survivals are legal);
//
// so the recovered Get(id) must match one of the candidates. Latency-only
// schedules additionally require zero client-visible errors and a Healthy
// store: a slow device is not a faulty one. Every other profile injects
// faults that are final — nothing retries them — so a fault that fails a
// write degrades its store.
//
// 56 seeds × 4 fault profiles; runs under -race in CI.

const (
	chaosSeeds     = 56
	chaosWorkers   = 2
	chaosOps       = 120 // per worker
	chaosIDsPerW   = 60
	chaosBootstrap = 24
)

// chaosCandidate is one legal post-recovery state of an object.
type chaosCandidate struct {
	obj  vpindex.Object
	gone bool
}

// chaosRates maps a seed to its fault profile.
func chaosRates(seed int64) vpindex.FaultRates {
	switch seed % 4 {
	case 0: // latency-only: must finish with no error and healthy
		return vpindex.FaultRates{Latency: 0.03, MaxLatency: 100 * time.Microsecond}
	case 1: // failed fsyncs + silent page corruption, caught by checksums on later reads
		return vpindex.FaultRates{SyncFail: 0.02, TornWrite: 0.02, BitFlip: 0.01}
	case 2: // failed fsyncs + latched media faults
		return vpindex.FaultRates{SyncFail: 0.02, PermanentEIO: 0.005}
	default: // everything at once, plus latency spikes
		return vpindex.FaultRates{
			SyncFail:  0.02,
			TornWrite: 0.01, BitFlip: 0.01, PermanentEIO: 0.003,
			Latency: 0.01, MaxLatency: 100 * time.Microsecond,
		}
	}
}

// chaosOpts builds the store configuration for one seed; fi == nil opens the
// same directory with no fault injection (the recovery pass).
func chaosOpts(dir string, seed int64, fi *vpindex.FaultInjector) []vpindex.Option {
	kind := vpindex.TPRStar
	if seed%2 == 1 {
		kind = vpindex.Bx
	}
	opts := []vpindex.Option{
		vpindex.WithKind(kind),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(8),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(chaosBootstrap),
		vpindex.WithSeed(seed),
		vpindex.WithDataDir(dir),
		vpindex.WithWALSegmentBytes(4096),
	}
	if fi != nil {
		opts = append(opts, vpindex.WithFaultInjector(fi))
	}
	return opts
}

// acceptableChaosErr says whether a write error under an injected-fault
// schedule is an honest refusal: a classified media fault, or the explicit
// degraded/failed gate. Anything else (a silent wrong answer, an unclassified
// internal error) fails the oracle.
func acceptableChaosErr(err error) bool {
	return vpindex.IsMediaFault(err) ||
		errors.Is(err, vpindex.ErrDegraded) ||
		errors.Is(err, vpindex.ErrFailed) ||
		errors.Is(err, vpindex.ErrInjectedCrash)
}

// chaosWorker drives one goroutine's share of the workload over a disjoint id
// range and returns its shadow candidates plus every error a verb surfaced.
func chaosWorker(store *vpindex.Store, seed int64, g int) (map[vpindex.ObjectID][]chaosCandidate, []error) {
	rng := rand.New(rand.NewSource(seed*97 + int64(g)))
	base := 1 + g*1000
	cands := make(map[vpindex.ObjectID][]chaosCandidate)
	ensure := func(id vpindex.ObjectID) {
		if _, ok := cands[id]; !ok {
			cands[id] = []chaosCandidate{{gone: true}}
		}
	}
	var errs []error
	for op := 0; op < chaosOps; op++ {
		pick := base + rng.Intn(chaosIDsPerW)
		id := vpindex.ObjectID(pick)
		switch r := rng.Float64(); {
		case r < 0.10:
			ensure(id)
			switch err := store.Remove(id); {
			case err == nil:
				cands[id] = []chaosCandidate{{gone: true}}
			case errors.Is(err, vpindex.ErrNotFound):
				// Logical miss (the id is not live in memory): nothing was
				// logged, nothing durable changed.
			default:
				errs = append(errs, err)
				cands[id] = append(cands[id], chaosCandidate{gone: true})
			}
		case r < 0.25:
			n := 2 + rng.Intn(3)
			objs := make([]vpindex.Object, 0, n)
			seen := map[int]bool{pick: true}
			objs = append(objs, testObject(pick, rng))
			for len(objs) < n {
				b := base + rng.Intn(chaosIDsPerW)
				if seen[b] {
					continue
				}
				seen[b] = true
				objs = append(objs, testObject(b, rng))
			}
			err := store.ReportBatch(objs)
			for _, o := range objs {
				ensure(o.ID)
				if err == nil {
					cands[o.ID] = []chaosCandidate{{obj: o}}
				} else {
					// A failed batch may still have logged the records that
					// landed before the fault; keep both possibilities.
					cands[o.ID] = append(cands[o.ID], chaosCandidate{obj: o})
				}
			}
			if err != nil {
				errs = append(errs, err)
			}
		default:
			o := testObject(pick, rng)
			ensure(id)
			if err := store.Report(o); err == nil {
				cands[id] = []chaosCandidate{{obj: o}}
			} else {
				errs = append(errs, err)
				cands[id] = append(cands[id], chaosCandidate{obj: o})
			}
		}
		// Reads are never gated; under latency-only schedules they must
		// succeed, otherwise a surfaced media fault is acceptable.
		if op%17 == 3 {
			store.Get(id)
		}
		if op%41 == 7 {
			if _, err := store.Search(wholeDomain()); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return cands, errs
}

func TestChaosOracle(t *testing.T) {
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSeed(t, seed)
		})
	}
}

func runChaosSeed(t *testing.T, seed int64) {
	dir := t.TempDir()
	fi := vpindex.NewSeededInjector(seed, chaosRates(seed))
	store, err := vpindex.Open(chaosOpts(dir, seed, fi)...)
	if err != nil {
		t.Fatalf("open under faults: %v", err)
	}

	shadows := make([]map[vpindex.ObjectID][]chaosCandidate, chaosWorkers)
	workerErrs := make([][]error, chaosWorkers)
	var wg sync.WaitGroup
	for g := 0; g < chaosWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shadows[g], workerErrs[g] = chaosWorker(store, seed, g)
		}(g)
	}
	wg.Wait()
	finalHealth := store.Health()
	// Close errors are discarded deliberately: acknowledged writes were
	// fsynced at commit time (SyncAlways), and the page file is rebuilt from
	// checkpoint + log at the next open, so a faulted final sync loses
	// nothing the oracle below wouldn't catch.
	_ = store.Close()

	latencyOnly := seed%4 == 0
	for g, errs := range workerErrs {
		for _, err := range errs {
			if latencyOnly {
				t.Fatalf("worker %d: client-visible error under a latency-only schedule: %v", g, err)
			}
			if !acceptableChaosErr(err) {
				t.Fatalf("worker %d: unclassified error under faults: %v", g, err)
			}
		}
	}
	if latencyOnly && finalHealth != vpindex.HealthHealthy {
		t.Fatalf("latency-only schedule left store %v, want healthy", finalHealth)
	}

	// Recovery with a clean injector must always succeed, and every id must
	// land on one of its shadow candidates: acknowledged writes survived,
	// failed writes either landed or vanished — never anything else.
	recovered, err := vpindex.Open(chaosOpts(dir, seed, nil)...)
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer recovered.Close()
	if got := recovered.Health(); got != vpindex.HealthHealthy {
		t.Fatalf("reopened store health = %v, want healthy (no fault injection)", got)
	}
	for _, cands := range shadows {
		for id, cs := range cands {
			got, ok := recovered.Get(id)
			matched := false
			for _, c := range cs {
				if c.gone == !ok && (c.gone || got == c.obj) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("seed %d: recovered Get(%d) = (%+v, %v) matches no candidate of %d acknowledged/attempted states",
					seed, id, got, ok, len(cs))
			}
		}
	}
}
