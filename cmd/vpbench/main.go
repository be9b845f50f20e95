// Command vpbench regenerates the experiments of "Boosting Moving Object
// Indexing through Velocity Partitioning" (VLDB 2012). Each -exp value
// corresponds to a figure of the paper's Section 6; the output is a table
// with the same series the figure plots.
//
// Usage:
//
//	vpbench -exp fig19                 # all datasets, reduced default scale
//	vpbench -exp fig21 -paper          # Table 1 scale (minutes)
//	vpbench -exp all -objects 10000    # everything, custom scale
//	vpbench -exp fig7 -points fig7.csv # also dump the scatter points
//
// Scale notes: -objects picks the population; the domain side and buffer
// pool scale with it to preserve the paper's object density and
// buffer-to-index ratio (see internal/bench). -paper forces Table 1
// parameters exactly.
//
// Engine performance (throughput, latency, page accesses per layer) is not
// measured here: that is the canonical benchmark, bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "fig19", "experiment: dva|fig7|fig17|fig18|fig19|fig20|fig21|fig22|fig23|fig24|all")
		objects  = flag.Int("objects", 20000, "number of moving objects")
		queries  = flag.Int("queries", 200, "number of range queries")
		duration = flag.Float64("duration", 120, "workload duration (ts)")
		paper    = flag.Bool("paper", false, "use Table 1 scale (100K objects, 240 ts, 100 km domain)")
		seed     = flag.Int64("seed", 42, "workload seed")
		points   = flag.String("points", "", "CSV file for fig7 scatter points")
		dataset  = flag.String("dataset", "CH", "dataset for fig17/dva: CH|SA|MEL|NY|uniform")
	)
	flag.Parse()

	sc := bench.ScaleFor(*objects, *queries, *duration)
	if *paper {
		sc = bench.PaperScale()
	}
	fmt.Printf("scale: %d objects, %d queries, %.0f ts, %.0f m domain, %d buffer pages\n\n",
		sc.Objects, sc.Queries, sc.Duration, sc.DomainSide, sc.Buffer)

	run := func(name string) error {
		switch name {
		case "dva":
			tab, err := bench.RunDVADump(workload.Dataset(*dataset), sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig7":
			pts, tab, err := bench.RunFig7(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
			if *points != "" {
				if err := writePoints(*points, pts); err != nil {
					return err
				}
				fmt.Printf("wrote %d scatter points to %s\n", len(pts), *points)
			}
		case "fig17":
			for _, ds := range []workload.Dataset{workload.Chicago, workload.SanFrancisco} {
				tab, err := bench.RunFig17(ds, sc, *seed)
				if err != nil {
					return err
				}
				fmt.Println(tab.Format())
			}
		case "fig18":
			tab, err := bench.RunFig18(sc, *seed, 5)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig19":
			tab, err := bench.RunFig19(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig20":
			sizes := []int{sc.Objects, sc.Objects * 2, sc.Objects * 3, sc.Objects * 4, sc.Objects * 5}
			tab, err := bench.RunFig20(sizes, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig21":
			tab, err := bench.RunFig21([]float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig22":
			tab, err := bench.RunFig22([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig23":
			tab, err := bench.RunFig23([]float64{20, 40, 60, 80, 100, 120}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig24":
			tab, err := bench.RunFig24([]float64{20, 40, 60, 80, 100, 120}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"dva", "fig7", "fig17", "fig18", "fig19",
			"fig20", "fig21", "fig22", "fig23", "fig24"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

func writePoints(path string, pts []bench.ExpansionPoint) error {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%g,%g\n", p.Series, p.X, p.Y)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
