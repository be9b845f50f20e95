package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// exactCounts are the end-to-end metrics read off the Store's counters in
// the single-caller count phase: for one seed they must repeat exactly.
var exactCounts = []string{"search_page_accesses", "report_page_accesses"}

// benchmarkFile is the part of BENCHMARK.json the report needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which is
// what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// repeatReport runs k sets of untraced runs, each run its own process as
// the driver starts it, alternating the workload order between sets, and
// prints per metric and workload the median, the quartiles, the spread
// (q3-q1 over the median) and whether the spread is within the metric's
// bound. The exact counts must also be identical in every set. It returns
// the process's exit code.
func repeatReport(run []*spec, k int, seed int64, seconds float64) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for set := 0; set < k; set++ {
		order := slices.Clone(run)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, sp := range order {
			cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d, %s: %v\n", set, sp.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line contractLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: set %d, %s: bad result %q (%v)\n", set, sp.name, lines[len(lines)-1], err)
				return 1
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d seed %d %s done\n", set+1, k, seed, sp.name)
		}
	}

	exit := 0
	fmt.Printf("%-16s %-22s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, sp := range run {
		for _, m := range bf.EndToEnd {
			v := values[sp.name][m.Name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			verdict := "PASS"
			switch {
			case m.Name == "setup_s":
				verdict = "n/a" // the driver does not hold setup_s to its spread
			case spread > m.Bound:
				verdict, exit = "FAIL", 1
			case spread > m.Bound/3:
				verdict = "PASS (above a third of the bound)"
			}
			if slices.Contains(exactCounts, m.Name) && slices.Max(v) != slices.Min(v) {
				verdict, exit = "FAIL (count not identical across sets)", 1
			}
			fmt.Printf("%-16s %-22s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%  %s\n",
				sp.name, m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
			fmt.Printf("%-16s %-22s every run: %.4g\n", "", "", v)
		}
	}
	return exit
}
