// Fleet monitor: continuous situational awareness around a moving convoy —
// the paper's moving range query ("a tank wants to know if there are any
// other tanks within one kilometer of itself", Section 6) — served as a
// Store-native standing subscription over a Store that bootstraps its own
// velocity partitions online. No upfront velocity sample is supplied: the
// Store opens unpartitioned, counts reports, then runs the DVA analysis over
// the live vehicles' current velocities and migrates the fleet into the
// partitions mid-stream — and the standing subscription's result set rides through the
// swap untouched, because subscription state lives above the index epochs.
//
// Every 20 ts the protective zone is re-centered on the convoy's current
// predicted position (unsubscribe + subscribe), and between checks the
// subscription is maintained incrementally by the report stream itself.
//
// Run with: go run ./examples/fleetmonitor
package main

import (
	"fmt"
	"log"

	vpindex "repro"
	"repro/internal/workload"
)

func main() {
	params := workload.DefaultParams(workload.Chicago, 6000)
	params.Domain = vpindex.R(0, 0, 24000, 24000)
	params.Duration = 120
	gen, err := workload.NewGenerator(params)
	if err != nil {
		log.Fatal(err)
	}

	// The auto-partition threshold lands mid-stream: the 6000 initial
	// reports land in the unpartitioned managers, and the analysis triggers
	// 2000 location reports into live traffic.
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(params.Domain),
		vpindex.WithBufferPages(50),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(8000),
		vpindex.WithSeed(params.Seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.ReportBatch(gen.Initial()); err != nil {
		log.Fatal(err)
	}
	collected, target := store.BootstrapProgress()
	fmt.Printf("unpartitioned store loaded: %d vehicles, %d/%d reports toward the bootstrap\n\n",
		store.Len(), collected, target)

	// The convoy: vehicle 1. Its protective zone is a 2 km box that
	// translates with the convoy's current velocity, watched 30 ts ahead.
	convoy, ok := store.Get(1)
	if !ok {
		log.Fatal("convoy vehicle missing")
	}
	fmt.Printf("convoy at %v moving %v\n\n", convoy.Pos, convoy.Vel)

	// subscribeZone (re-)registers the standing moving-range query centered
	// on the convoy's predicted position at time now.
	subscribeZone := func(prev vpindex.SubscriptionID, now float64) (vpindex.SubscriptionID, int) {
		if prev != 0 {
			if err := store.Unsubscribe(prev); err != nil {
				log.Fatal(err)
			}
		}
		convoy, _ = store.Get(1)
		c := convoy.PosAt(now)
		zone := vpindex.R(c.X-1000, c.Y-1000, c.X+1000, c.Y+1000)
		id, seed, err := store.Subscribe(vpindex.Subscription{
			Query:  vpindex.MovingQuery(zone, convoy.Vel, 0, 0, 0),
			Window: 30, // anyone intersecting the moving zone within 30 ts
		}, now)
		if err != nil {
			log.Fatal(err)
		}
		// The convoy itself is always in its own zone; report the rest.
		alerts := 0
		for _, e := range seed {
			if e.ID != 1 {
				alerts++
			}
		}
		return id, alerts
	}

	nextCheck := 20.0
	checks := 0
	partitioned := false
	subID, _ := subscribeZone(0, 0)
	for {
		ev, okUpd := gen.NextUpdate()
		if !okUpd {
			break
		}
		// Production verb: the device reports only its new state; the
		// subscription engine keeps the zone's membership current.
		if err := store.Report(ev.New); err != nil {
			log.Fatal(err)
		}
		if !partitioned && store.Partitioned() {
			partitioned = true
			an, _ := store.Analysis()
			members, _ := store.SubscriptionResults(subID)
			fmt.Printf("t=%6.1f  >>> online bootstrap: analyzed %d velocities, migrated %d vehicles "+
				"into %d partitions; zone membership (%d) carried across <<<\n",
				ev.T, an.SampleSize, store.Len(), len(store.Partitions()), len(members))
		}
		if ev.T < nextCheck {
			continue
		}
		nextCheck += 20
		checks++
		var alerts int
		subID, alerts = subscribeZone(subID, ev.T)
		fmt.Printf("t=%6.1f  convoy zone re-centered: %d vehicles will cross it within 30 ts\n",
			ev.T, alerts)
	}
	if !partitioned {
		log.Fatal("bootstrap never triggered — raise workload duration or lower the threshold")
	}
	members, err := store.SubscriptionResults(subID)
	if err != nil {
		log.Fatal(err)
	}
	st := store.Stats()
	fmt.Printf("\n%d monitoring rounds; final zone occupancy %d; total simulated I/O: %d reads / %d writes\n",
		checks, len(members), st.Reads, st.Writes)
}
