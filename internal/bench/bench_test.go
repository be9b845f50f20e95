package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func tinyScale() Scale { return ScaleFor(1500, 25, 25) }

func TestRunAllSetupsProduceMetrics(t *testing.T) {
	sc := tinyScale()
	for _, s := range AllSetups() {
		gen, err := workload.NewGenerator(params(workload.Chicago, sc, 1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(s, gen, sc.Buffer)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if m.Queries == 0 || m.Updates == 0 {
			t.Fatalf("%s: no work measured: %+v", s, m)
		}
		if m.QueryIO <= 0 {
			t.Fatalf("%s: query I/O %g", s, m.QueryIO)
		}
		if m.UpdateIO < 0 || m.QueryMs < 0 {
			t.Fatalf("%s: negative metrics: %+v", s, m)
		}
	}
}

// TestResultParityAcrossSetups: all four setups must return identical
// result sets for the same workload — they index the same objects.
func TestResultParityAcrossSetups(t *testing.T) {
	sc := tinyScale()
	p := params(workload.SanFrancisco, sc, 3)
	results := map[Setup][]int{}
	for _, s := range AllSetups() {
		gen, err := workload.NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(s, gen, sc.Buffer)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range gen.Initial() {
			if err := idx.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		// Replay updates, then run queries and count per-query results.
		for {
			ev, ok := gen.NextUpdate()
			if !ok {
				break
			}
			if err := idx.Update(ev.Old, ev.New); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		var counts []int
		for _, q := range gen.Queries(20) {
			// Issue all queries at the end: shift Now forward so the
			// comparison is at identical logical times.
			q.Now = p.Duration
			q.T0 = p.Duration + p.PredictiveTime
			ids, err := idx.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, len(ids))
		}
		results[s] = counts
	}
	want := results[SetupBx]
	for s, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("setup %s disagrees on query %d: %d vs %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestVPWinsOnChicagoTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := ScaleFor(6000, 50, 30)
	ios := map[Setup]float64{}
	for _, s := range AllSetups() {
		gen, err := workload.NewGenerator(params(workload.Chicago, sc, 7))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(s, gen, sc.Buffer)
		if err != nil {
			t.Fatal(err)
		}
		ios[s] = m.QueryIO
	}
	t.Logf("query I/O: %v", ios)
	if ios[SetupBxVP] >= ios[SetupBx] {
		t.Errorf("Bx(VP) %.1f should beat Bx %.1f on Chicago", ios[SetupBxVP], ios[SetupBx])
	}
	if ios[SetupTPRVP] >= ios[SetupTPR] {
		t.Errorf("TPR*(VP) %.1f should beat TPR* %.1f on Chicago", ios[SetupTPRVP], ios[SetupTPR])
	}
}

func TestFig7ProducesAnisotropySplit(t *testing.T) {
	points, tab, err := RunFig7(tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || len(tab.Rows) < 4 {
		t.Fatalf("fig7 empty: %d points, %d rows", len(points), len(tab.Rows))
	}
	// Partitioned series must be markedly more anisotropic (minor/major
	// closer to 0) than unpartitioned.
	ratio := map[string]float64{}
	for _, r := range tab.Rows {
		var v float64
		if _, err := sscan(r[4], &v); err != nil {
			t.Fatal(err)
		}
		ratio[r[0]] = v
	}
	for _, base := range []string{"TPR*", "Bx"} {
		flat, ok := ratio[base]
		if !ok {
			t.Fatalf("missing series %s in %v", base, ratio)
		}
		for name, v := range ratio {
			if strings.HasPrefix(name, base+" partition") && v > flat/2 {
				t.Errorf("%s ratio %.3f not clearly below %s %.3f", name, v, base, flat)
			}
		}
	}
	t.Log("\n" + tab.Format())
}

func TestFig18AnalyzerTimes(t *testing.T) {
	tab, err := RunFig18(tinyScale(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 datasets, got %d", len(tab.Rows))
	}
	t.Log("\n" + tab.Format())
}

func TestDVADumpListsAllMethods(t *testing.T) {
	tab, err := RunDVADump(workload.SanFrancisco, tinyScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 { // 2 VP partitions + naive I + 2 naive II
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	t.Log("\n" + tab.Format())
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "1"}},
	}
	out := tab.Format()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "xxxxxx") {
		t.Fatalf("format: %q", out)
	}
}

// sscan parses a float out of a formatted table cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestMetricsOnBrokenWorkload(t *testing.T) {
	// Validate that Run surfaces index errors instead of swallowing them:
	// use an index that rejects everything.
	gen, err := workload.NewGenerator(params(workload.Uniform, tinyScale(), 5))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunOn(rejectingIndex{}, SetupBx, gen)
	if err == nil {
		t.Fatal("expected error from rejecting index")
	}
}

type rejectingIndex struct{}

func (rejectingIndex) Insert(model.Object) error                         { return errRejected }
func (rejectingIndex) Delete(model.Object) error                         { return errRejected }
func (rejectingIndex) Update(_, _ model.Object) error                    { return errRejected }
func (rejectingIndex) Search(model.RangeQuery) ([]model.ObjectID, error) { return nil, errRejected }
func (rejectingIndex) Len() int                                          { return 0 }
func (rejectingIndex) IO() model.IOStats                                 { return model.IOStats{} }
func (rejectingIndex) Name() string                                      { return "reject" }
func (rejectingIndex) Stats() model.IOStats                              { return model.IOStats{} }

var errRejected = errString("rejected")

type errString string

func (e errString) Error() string { return string(e) }
