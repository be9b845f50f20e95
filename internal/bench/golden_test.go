package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFigureGolden pins the deterministic columns of Fig. 19-24 at
// ScaleFor(4000, 60, 40), seed 42: for Fig. 19's dataset x setup grid the simulated I/O
// per query and per update (buffer-pool misses) and the average result
// count; for the Fig. 20-24 sweeps the I/O columns of the printed table at
// one sweep point each; and Fig. 17's whole tau sweep on CH. Wall-clock
// columns are dropped. The numbers were captured from the root package's
// former flat and partitioned index constructors before Build took over
// their job, so any drift in pool sharing, probe order or analyzer seeding
// shows up as a byte diff.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc, seed := ScaleFor(4000, 60, 40), int64(42)
	var b strings.Builder
	b.WriteString("## Fig. 19 grid: dataset setup query-I/O update-I/O avg-results\n")
	for _, ds := range workload.Datasets() {
		for _, s := range AllSetups() {
			gen, err := workload.NewGenerator(params(ds, sc, seed))
			if err != nil {
				t.Fatal(err)
			}
			m, err := Run(s, gen, sc.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %s %s %s\n", ds, s, f1(m.QueryIO), f2(m.UpdateIO), f3(m.AvgResults))
		}
	}
	for _, fig := range []func() (Table, error){
		func() (Table, error) { return RunFig20([]int{6000}, sc, seed) },
		func() (Table, error) { return RunFig21([]float64{160}, sc, seed) },
		func() (Table, error) { return RunFig22([]float64{800}, sc, seed) },
		func() (Table, error) { return RunFig23([]float64{100}, sc, seed) },
		func() (Table, error) { return RunFig24([]float64{100}, sc, seed) },
		func() (Table, error) { return RunFig17(workload.Chicago, sc, seed) },
	} {
		tab, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		b.WriteString(dropTimingColumns(tab).Format())
	}

	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("figure I/O columns drifted from %s (rerun with -update only if the change is intended)\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// dropTimingColumns removes the wall-clock ("... ms") columns of a figure table.
func dropTimingColumns(tab Table) Table {
	var keep []int
	out := Table{Title: tab.Title}
	for i, h := range tab.Header {
		if !strings.HasSuffix(h, " ms") {
			keep = append(keep, i)
			out.Header = append(out.Header, h)
		}
	}
	for _, r := range tab.Rows {
		row := make([]string, len(keep))
		for j, i := range keep {
			row[j] = r[i]
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
