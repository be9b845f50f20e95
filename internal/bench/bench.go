// Package bench is the experiment harness that regenerates every figure of
// the VP paper's evaluation (Section 6). Each RunFigNN function drives the
// four index configurations — Bx, Bx(VP), TPR*, TPR*(VP) — through the
// Chen-benchmark workload of internal/workload and reports the same
// series/rows the paper plots: average query I/O (buffer-pool misses),
// average query execution time, and (for Fig. 19) update costs.
//
// The harness is scale-parameterized: Scale{} chooses the object count,
// query count and duration. Paper scale (Table 1) is minutes per figure;
// the default test scale finishes in seconds while preserving the paper's
// qualitative outcomes (who wins, how gaps widen with speed/time/size).
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/analysis/cluster"
	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/tprtree"
	"repro/internal/workload"
)

// Setup names one index configuration of the paper's comparison.
type Setup string

const (
	SetupBx    Setup = "Bx"
	SetupBxVP  Setup = "Bx(VP)"
	SetupTPR   Setup = "TPR*"
	SetupTPRVP Setup = "TPR*(VP)"
)

// AllSetups returns the four configurations in the paper's legend order.
func AllSetups() []Setup { return []Setup{SetupBx, SetupBxVP, SetupTPR, SetupTPRVP} }

// IsVP reports whether the setup uses velocity partitioning.
func (s Setup) IsVP() bool { return s == SetupBxVP || s == SetupTPRVP }

// Scale controls experiment size. Reduced scales must preserve two ratios
// or the paper's effects vanish into cache noise: the *object density*
// (Table 1: 100K objects on a 100,000 m side, 1e-5 objects/m^2) and the
// *buffer-to-index* ratio (50 pages against a ~1200-page index, ~4%).
// ScaleFor derives both from the object count.
type Scale struct {
	Objects    int
	Queries    int
	Duration   float64
	DomainSide float64 // data space side length (m)
	Buffer     int     // buffer pool pages
}

// ScaleFor derives a density- and buffer-ratio-preserving scale for an
// object count.
func ScaleFor(objects, queries int, duration float64) Scale {
	side := 100000 * math.Sqrt(float64(objects)/100000)
	buf := objects * 50 / 100000
	if buf < 8 {
		buf = 8
	}
	return Scale{
		Objects:    objects,
		Queries:    queries,
		Duration:   duration,
		DomainSide: side,
		Buffer:     buf,
	}
}

// PaperScale is Table 1: 100K objects on the full 100 km domain, 240 ts,
// 50 buffer pages.
func PaperScale() Scale {
	return Scale{Objects: 100000, Queries: 200, Duration: 240, DomainSide: 100000, Buffer: 50}
}

// Instrumented is an index whose buffer pool can be snapshooted.
type Instrumented interface {
	model.Index
	Stats() model.IOStats
}

// Index is one built setup: a single tree for the unpartitioned setups, a
// *core.Manager over k+1 trees for the VP ones, in either case over one
// buffer pool whose misses are the I/O every figure plots.
type Index struct {
	model.Index
	pool *storage.BufferPool
}

// Stats returns the cumulative simulated I/O counters of the setup's pool.
func (ix *Index) Stats() model.IOStats {
	s := ix.pool.Stats()
	return model.IOStats{Reads: s.Misses, Writes: s.Writes, Hits: s.Hits}
}

// Build constructs one of the four setups for the given workload generator.
// VP setups analyze the generator's velocity sample first.
func Build(s Setup, gen *workload.Generator, bufferPages int) (*Index, error) {
	return buildTau(s, gen, bufferPages, -1)
}

// buildTau is Build with every DVA partition's outlier threshold set to tau
// before the manager is built (the fixed-tau sweep of Fig. 17); a negative
// tau keeps the analyzed thresholds.
func buildTau(s Setup, gen *workload.Generator, bufferPages int, tau float64) (*Index, error) {
	p := gen.Params()
	pool := storage.NewBufferPool(storage.NewMemStore(), bufferPages)
	tree := func(domain geom.Rect) (model.Index, error) {
		if s == SetupBx || s == SetupBxVP {
			return bxtree.NewTree(pool, bxtree.Config{
				Domain:            domain,
				MaxUpdateInterval: p.MaxUpdateInterval,
			})
		}
		return tprtree.NewTree(pool, tprtree.Config{Horizon: p.MaxUpdateInterval})
	}
	if !s.IsVP() {
		idx, err := tree(p.Domain)
		if err != nil {
			return nil, err
		}
		return &Index{Index: idx, pool: pool}, nil
	}
	an, err := core.Analyze(gen.VelocitySample(p.SampleSize), core.AnalyzerConfig{
		K:       2,
		Cluster: cluster.Options{Seed: p.Seed},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; tau >= 0 && i < len(an.Frames)-1; i++ {
		an.Frames[i].Tau = tau
	}
	mgr, err := core.NewManager(an, core.ManagerConfig{
		Domain: p.Domain,
		// The paper probes the partitions one after another through the one
		// shared pool; a parallel probe would make the pool's eviction order,
		// and with it every plotted I/O number, depend on goroutine scheduling.
		SearchParallelism: 1,
	}, func(spec core.PartitionSpec) (model.Index, error) { return tree(spec.Domain) })
	if err != nil {
		return nil, err
	}
	return &Index{Index: mgr, pool: pool}, nil
}

// Metrics aggregates one setup's measured costs over a workload run.
type Metrics struct {
	Setup   Setup
	Dataset workload.Dataset

	Queries     int
	Updates     int
	QueryIO     float64 // average buffer misses per query
	QueryMs     float64 // average wall ms per query
	UpdateIO    float64
	UpdateMs    float64
	AvgResults  float64
	LoadSeconds float64
}

// Run loads the initial population, then replays the update stream
// interleaved with the query stream in timestamp order, measuring per-
// operation I/O (buffer misses) and wall time.
func Run(s Setup, gen *workload.Generator, bufferPages int) (Metrics, error) {
	idx, err := Build(s, gen, bufferPages)
	if err != nil {
		return Metrics{}, err
	}
	return RunOn(idx, s, gen)
}

// RunOn replays the workload against a pre-built index (used by the
// fixed-tau sweep, which builds its indexes with buildTau).
func RunOn(idx Instrumented, s Setup, gen *workload.Generator) (Metrics, error) {
	m := Metrics{Setup: s, Dataset: gen.Params().Dataset}

	loadStart := time.Now()
	for _, o := range gen.Initial() {
		if err := idx.Insert(o); err != nil {
			return m, fmt.Errorf("bench: load %v: %w", o.ID, err)
		}
	}
	m.LoadSeconds = time.Since(loadStart).Seconds()

	queries := gen.Queries(gen.Params().NumQueries)
	qi := 0
	var totalResults int64

	runQuery := func(q model.RangeQuery) error {
		before := idx.Stats()
		t0 := time.Now()
		ids, err := idx.Search(q)
		if err != nil {
			return err
		}
		m.QueryMs += time.Since(t0).Seconds() * 1000
		m.QueryIO += float64(idx.Stats().Reads - before.Reads)
		m.Queries++
		totalResults += int64(len(ids))
		return nil
	}

	for {
		ev, ok := gen.NextUpdate()
		if !ok {
			break
		}
		for qi < len(queries) && queries[qi].Now <= ev.T {
			if err := runQuery(queries[qi]); err != nil {
				return m, err
			}
			qi++
		}
		before := idx.Stats()
		t0 := time.Now()
		if err := idx.Update(ev.Old, ev.New); err != nil {
			return m, fmt.Errorf("bench: update %v at t=%g: %w", ev.Old.ID, ev.T, err)
		}
		m.UpdateMs += time.Since(t0).Seconds() * 1000
		m.UpdateIO += float64(idx.Stats().Reads - before.Reads)
		m.Updates++
	}
	for ; qi < len(queries); qi++ {
		if err := runQuery(queries[qi]); err != nil {
			return m, err
		}
	}

	if m.Queries > 0 {
		m.QueryIO /= float64(m.Queries)
		m.QueryMs /= float64(m.Queries)
		m.AvgResults = float64(totalResults) / float64(m.Queries)
	}
	if m.Updates > 0 {
		m.UpdateIO /= float64(m.Updates)
		m.UpdateMs /= float64(m.Updates)
	}
	return m, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// params builds workload parameters for a dataset at the given scale.
func params(ds workload.Dataset, sc Scale, seed int64) workload.Params {
	p := workload.DefaultParams(ds, sc.Objects)
	p.Duration = sc.Duration
	p.NumQueries = sc.Queries
	p.Seed = seed
	if sc.DomainSide > 0 {
		p.Domain = geomR(sc.DomainSide)
	}
	if sc.Objects < p.SampleSize {
		p.SampleSize = sc.Objects
	}
	return p
}

func geomR(side float64) geom.Rect { return geom.R(0, 0, side, side) }
