package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

const (
	smokeObjects = 2000
	smokeSeconds = 0.5 // 0.15 s saturate, 0.3 s paced
)

// Two generations from one seed must be identical and two seeds must
// differ: the seed is the only source of randomness.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, smokeObjects, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, smokeObjects, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", sp.name)
		}
		c, err := generate(sp, smokeObjects, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.initial, c.initial) || reflect.DeepEqual(a.streams, c.streams) || reflect.DeepEqual(a.count, c.count) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", sp.name)
		}
		for i, st := range a.streams {
			if len(st.ops) < 300 {
				t.Errorf("%s: caller %d has %d calls, want at least 300", sp.name, i, len(st.ops))
			}
		}
	}
}

// The paced schedule depends on the rate and the op index alone.
func TestDueTimesAreAFunctionOfRateAndIndex(t *testing.T) {
	interval := 250 * time.Microsecond
	a, b := time.Unix(1000, 0), time.Unix(987654, 321)
	for caller := 0; caller < numCallers; caller++ {
		for i := 0; i < 1000; i++ {
			da, db := dueAt(a, interval, caller, i).Sub(a), dueAt(b, interval, caller, i).Sub(b)
			want := time.Duration(i)*interval + time.Duration(caller)*interval/numCallers
			if da != want || db != want {
				t.Fatalf("caller %d op %d due after %v and %v, want %v", caller, i, da, db, want)
			}
		}
	}
}

type benchmarkMetrics struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload, untraced and traced, at a tiny scale: no op fails, and
// the metrics emitted are exactly the ones BENCHMARK.json names, once each,
// with finite values. The durable workload's crash step runs too. Whether
// the paced phase was valid is not asserted: the fixed rates are set for the
// real scale and an uninstrumented build, and the race detector's slowdown
// rightly makes them unsustainable.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkMetrics
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{sp: sp, seed: 3, objects: smokeObjects, seconds: smokeSeconds,
				traced: traced, dataRoot: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", sp.name, traced, res.failed, res.attempted)
			}
			line, err := contract(res, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", sp.name, traced, err)
				continue
			}
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", sp.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s (%s): got %+v, present=%v", sp.name, traced, m.Name, m.Unit, got, ok)
				}
			}
			if traced {
				checkZeroDirection(t, sp, res)
			}
		}
	}
}

// checkZeroDirection holds the traced run to the predictions that a layer a
// workload bypasses shows nothing.
func checkZeroDirection(t *testing.T, sp *spec, res *result) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if v := res.metrics[n]; v != 0 {
				t.Errorf("%s: %s = %v, want 0", sp.name, n, v)
			}
		}
	}
	positive := func(names ...string) {
		for _, n := range names {
			if v := res.metrics[n]; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, n, v)
			}
		}
	}
	if sp.durable {
		positive("wal.commits", "wal_bytes_per_report", "durability.checkpoints", "recovery_s", "durability.replayed_records")
	} else {
		zero("wal.commits", "wal.append_us", "wal_bytes_per_report", "durability.checkpoints", "durability.compactions", "recovery_s")
	}
	if sp.uniform {
		zero("bxtree.update_us", "bxtree.search_us", "bptree.insert_us", "sfc.appendwindow_us")
		positive("tprtree.update_us", "tprtree.search_us")
	} else {
		zero("tprtree.update_us", "tprtree.search_us")
		positive("bxtree.update_us", "bxtree.search_us", "bptree.insert_us", "sfc.appendwindow_us")
	}
	if sp.subs == 0 {
		zero("monitor.filter_us", "monitor.candidates_per_report", "subscriptions.events_per_report")
	} else {
		positive("monitor.filter_us", "subscriptions.refresh_ms")
	}
	positive("store.report_us", "store.search_us", "core.report_us", "core.search_us", "core.partitions_per_search")
}

// One flipped bit in one query answer must fail the run.
func TestAFlippedAnswerFailsTheRun(t *testing.T) {
	res, err := runWorkload(runConfig{sp: findSpec("dispatch-read"), seed: 3, objects: smokeObjects,
		seconds: smokeSeconds, dataRoot: t.TempDir(), flipAnswer: true})
	if err != nil {
		t.Fatal(err)
	}
	if line, _ := contract(res, false); res.failed == 0 || line.Correct {
		t.Fatalf("a corrupted answer went unnoticed: failed=%d correct=%v", res.failed, line.Correct)
	}
}

// A paced rate the program cannot sustain must fail the run: its latencies
// are queueing times, not to be compared with a valid run's.
func TestAnOverloadedPacedPhaseFailsTheRun(t *testing.T) {
	sp := *findSpec("dispatch-read")
	sp.pacedCallsPerSec, sp.maxCallsPerSec = 80_000, 80_000 // an op takes about 90 us here, a caller is due one every 25 us
	res, err := runWorkload(runConfig{sp: &sp, seed: 3, objects: smokeObjects, seconds: 0.1, dataRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if line, _ := contract(res, false); res.metrics["loadgen.backlog_end"] == 0 || res.invalid == 0 || line.Correct {
		t.Fatalf("a standing backlog went unnoticed: backlog_end=%v correct=%v notes=%q",
			res.metrics["loadgen.backlog_end"], line.Correct, res.notes)
	}
}
