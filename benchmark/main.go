// Command benchmark is this repository's one benchmark: four fleet workloads
// driven through the public Store API, checked against a brute-force shadow,
// reporting the end-to-end metrics of BENCHMARK.json and, on a traced run,
// the per-layer metrics. See README.md in this directory.
//
// The driver's contract:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output and exits 0.
// Without --workload it runs every workload; -repeat K runs the
// repeatability report instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

const defaultSeconds = 25 // run_seconds of BENCHMARK.json

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the object the driver reads.
type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// summary is the -out file. The benchmark measures and claims no gain, so
// claim is always null.
type summary struct {
	Seed    int64                   `json:"seed"`
	Seconds float64                 `json:"seconds"`
	Objects int                     `json:"objects"`
	Traced  bool                    `json:"traced"`
	Results map[string]contractLine `json:"results"`
	Claim   *string                 `json:"claim"`
}

// metricsOf lists the metrics a run of the given mode prints.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// contract selects the metrics of the run's mode. Every end-to-end metric
// must have been measured; a per-layer metric the workload has no use for
// is reported as 0.
func contract(res *result, traced bool) (contractLine, error) {
	defs := metricsOf(traced)
	failed := res.failed + res.invalid
	line := contractLine{Correct: failed == 0, Attempted: res.attempted, Failed: failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && (!ok || v <= 0)) {
			return line, fmt.Errorf("benchmark: %s: metric %s has no usable value (%v)", res.workload, d.name, v)
		}
		line.Metrics[d.name] = metricOut{v, d.unit}
	}
	return line, nil
}

// table prints every measured metric by name and unit.
func table(w io.Writer, res *result, traced bool) {
	defs := metricsOf(traced)
	failed := res.failed + res.invalid
	fmt.Fprintf(w, "\n%s (traced=%v): attempted %d, failed %d, failed_share %g\n",
		res.workload, traced, res.attempted, failed, float64(failed)/float64(max(res.attempted, 1)))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch n, sampled := res.samples[d.name]; {
		case !ok:
			fmt.Fprintf(w, "  %-36s %14s %s\n", d.name, "-", d.unit)
		case sampled:
			fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d\n", d.name, v, d.unit, n)
		default:
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func main() { os.Exit(run()) }

// run is main behind an exit code, so that the deferred removal of the
// run's temporary directory happens on every path.
func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed phases")
		trace    = flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
		out      = flag.String("out", "", "write a JSON summary of the runs to this file")
		spans    = flag.String("spans", "", "traced run: write the recorded spans to this file")
		repeat   = flag.Int("repeat", 0, "run the repeatability report over this many sets of runs")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE] [-repeat K]")
		return 2
	}
	todo := specs
	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		todo = []*spec{sp}
	}
	if *repeat > 0 {
		return repeatReport(todo, *repeat, *seed, *seconds)
	}
	// The durable workload's files and a traced run's scratch files live in a
	// directory of the run's own under $TMPDIR, which run.sh points into the
	// checkout.
	dataRoot, err := os.MkdirTemp("", "vpbenchmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dataRoot)

	isTraced := *trace == 1
	results := map[string]contractLine{}
	exit := 0
	var last contractLine
	for _, sp := range todo {
		res, err := runWorkload(runConfig{sp: sp, seed: *seed, objects: defaultObjects, seconds: *seconds,
			traced: isTraced, dataRoot: dataRoot, spansPath: *spans})
		if err == nil {
			table(os.Stderr, res, isTraced)
			last, err = contract(res, isTraced)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		results[sp.name] = last
		if !last.Correct {
			exit = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(summary{*seed, *seconds, defaultObjects, isTraced, results, nil}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 2
		}
	}
	if len(todo) == 1 {
		b, _ := json.Marshal(last) // a struct of numbers and strings cannot fail to marshal
		fmt.Println(string(b))
	}
	return exit
}
