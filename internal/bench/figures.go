package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/tprtree"
	"repro/internal/workload"
)

// --- Fig. 7: search space expansion ------------------------------------------

// ExpansionPoint is one scatter point of Fig. 7: the per-axis expansion
// rate of a leaf MBR (TPR* variants) or of the enlarged query window (Bx
// variants). For partitioned series, X is the rate along the partition's
// DVA and Y orthogonal to it.
type ExpansionPoint struct {
	Series string
	X, Y   float64
}

// RunFig7 reproduces Fig. 7: the unpartitioned TPR*/Bx expand in 2-D while
// their VP counterparts expand in a near-1D space. Returns the scatter
// points plus a summary table of mean rates and anisotropy.
func RunFig7(sc Scale, seed int64) ([]ExpansionPoint, Table, error) {
	p := params(workload.Chicago, sc, seed)
	var points []ExpansionPoint

	// TPR* unpartitioned.
	genT, err := workload.NewGenerator(p)
	if err != nil {
		return nil, Table{}, err
	}
	flatT, err := Build(SetupTPR, genT, sc.Buffer)
	if err != nil {
		return nil, Table{}, err
	}
	for _, o := range genT.Initial() {
		if err := flatT.Insert(o); err != nil {
			return nil, Table{}, err
		}
	}
	tpr := flatT.Index.(*tprtree.Tree)
	lbs, err := tpr.LeafBounds(0)
	if err != nil {
		return nil, Table{}, err
	}
	for _, lb := range lbs {
		points = append(points, ExpansionPoint{
			Series: "TPR*",
			X:      lb.MR.VBR.MaxX - lb.MR.VBR.MinX,
			Y:      lb.MR.VBR.MaxY - lb.MR.VBR.MinY,
		})
	}

	// TPR* partitioned: rates per DVA partition in that partition's frame.
	genTV, err := workload.NewGenerator(p)
	if err != nil {
		return nil, Table{}, err
	}
	vpT, err := Build(SetupTPRVP, genTV, sc.Buffer)
	if err != nil {
		return nil, Table{}, err
	}
	for _, o := range genTV.Initial() {
		if err := vpT.Insert(o); err != nil {
			return nil, Table{}, err
		}
	}
	for pi, part := range vpT.Index.(*core.Manager).Partitions() {
		tree, ok := part.Index.(*tprtree.Tree)
		if !ok || part.Spec.IsOutlier {
			continue
		}
		plbs, err := tree.LeafBounds(0)
		if err != nil {
			return nil, Table{}, err
		}
		for _, lb := range plbs {
			points = append(points, ExpansionPoint{
				Series: fmt.Sprintf("TPR* partition %d", pi),
				X:      lb.MR.VBR.MaxX - lb.MR.VBR.MinX,
				Y:      lb.MR.VBR.MaxY - lb.MR.VBR.MinY,
			})
		}
	}

	// Bx unpartitioned: query window expansion rates sampled over random
	// query regions.
	genB, err := workload.NewGenerator(p)
	if err != nil {
		return nil, Table{}, err
	}
	flatB, err := Build(SetupBx, genB, sc.Buffer)
	if err != nil {
		return nil, Table{}, err
	}
	for _, o := range genB.Initial() {
		if err := flatB.Insert(o); err != nil {
			return nil, Table{}, err
		}
	}
	bx := flatB.Index.(*bxtree.Tree)
	for _, q := range genB.Queries(sc.Queries) {
		for _, r := range bx.ExpansionRate(q.Region()) {
			points = append(points, ExpansionPoint{Series: "Bx", X: r.X, Y: r.Y})
		}
	}

	// Bx partitioned.
	genBV, err := workload.NewGenerator(p)
	if err != nil {
		return nil, Table{}, err
	}
	vpB, err := Build(SetupBxVP, genBV, sc.Buffer)
	if err != nil {
		return nil, Table{}, err
	}
	for _, o := range genBV.Initial() {
		if err := vpB.Insert(o); err != nil {
			return nil, Table{}, err
		}
	}
	for pi, part := range vpB.Index.(*core.Manager).Partitions() {
		tree, ok := part.Index.(*bxtree.Tree)
		if !ok || part.Spec.IsOutlier {
			continue
		}
		for _, q := range genBV.Queries(sc.Queries) {
			tq := q.Transform(part.Rot)
			for _, r := range tree.ExpansionRate(tq.Region()) {
				points = append(points, ExpansionPoint{
					Series: fmt.Sprintf("Bx partition %d", pi),
					X:      r.X, Y: r.Y,
				})
			}
		}
	}

	// Summary: mean rates and anisotropy ratio per series.
	type agg struct {
		n          int
		sx, sy     float64
		anisotropy float64
	}
	aggs := map[string]*agg{}
	var order []string
	for _, pt := range points {
		a, ok := aggs[pt.Series]
		if !ok {
			a = &agg{}
			aggs[pt.Series] = a
			order = append(order, pt.Series)
		}
		a.n++
		a.sx += pt.X
		a.sy += pt.Y
		lo, hi := math.Min(pt.X, pt.Y), math.Max(pt.X, pt.Y)
		if hi > 0 {
			a.anisotropy += lo / hi
		}
	}
	tab := Table{
		Title:  "Fig. 7 — search space expansion rates (CH), mean m/ts per axis",
		Header: []string{"series", "points", "mean rate major", "mean rate minor", "minor/major"},
	}
	for _, s := range order {
		a := aggs[s]
		mx, my := a.sx/float64(a.n), a.sy/float64(a.n)
		tab.Rows = append(tab.Rows, []string{
			s, fmt.Sprint(a.n),
			f1(math.Max(mx, my)), f1(math.Min(mx, my)),
			f3(a.anisotropy / float64(a.n)),
		})
	}
	return points, tab, nil
}

// --- Fig. 17: fixed tau sweep vs automatic tau -------------------------------

// TauSweepValues mirrors the paper's x-axis.
var TauSweepValues = []float64{0, 1, 2, 5, 10, 15, 20, 40, 60}

// RunFig17 reproduces Fig. 17 for one dataset: query I/O of Bx(VP) and
// TPR*(VP) at fixed tau thresholds versus the automatically derived tau.
func RunFig17(ds workload.Dataset, sc Scale, seed int64) (Table, error) {
	tab := Table{
		Title:  fmt.Sprintf("Fig. 17 — tau sweep on %s (query I/O)", ds),
		Header: []string{"tau", "Bx(VP)", "TPR*(VP)"},
	}
	// run measures one setup at a fixed tau; tau < 0 is the analyzed one.
	run := func(s Setup, tau float64) (float64, error) {
		gen, err := workload.NewGenerator(params(ds, sc, seed))
		if err != nil {
			return 0, err
		}
		idx, err := buildTau(s, gen, sc.Buffer, tau)
		if err != nil {
			return 0, err
		}
		m, err := RunOn(idx, s, gen)
		if err != nil {
			return 0, err
		}
		return m.QueryIO, nil
	}
	for _, tau := range TauSweepValues {
		bxIO, err := run(SetupBxVP, tau)
		if err != nil {
			return tab, err
		}
		tprIO, err := run(SetupTPRVP, tau)
		if err != nil {
			return tab, err
		}
		tab.Rows = append(tab.Rows, []string{f1(tau), f1(bxIO), f1(tprIO)})
	}
	bxAuto, err := run(SetupBxVP, -1)
	if err != nil {
		return tab, err
	}
	tprAuto, err := run(SetupTPRVP, -1)
	if err != nil {
		return tab, err
	}
	tab.Rows = append(tab.Rows, []string{"auto", f1(bxAuto), f1(tprAuto)})
	return tab, nil
}

// --- Fig. 18: velocity analyzer overhead --------------------------------------

// RunFig18 times the velocity analyzer (PCA-guided k-means + tau) on a
// 10,000-point sample of every dataset, averaged over runs (the paper runs
// each five times).
func RunFig18(sc Scale, seed int64, runs int) (Table, error) {
	if runs <= 0 {
		runs = 5
	}
	tab := Table{
		Title:  "Fig. 18 — velocity analyzer run time (ms)",
		Header: []string{"dataset", "analyzer ms"},
	}
	for _, ds := range workload.Datasets() {
		p := params(ds, sc, seed)
		gen, err := workload.NewGenerator(p)
		if err != nil {
			return tab, err
		}
		sample := gen.VelocitySample(p.SampleSize)
		var total time.Duration
		for r := 0; r < runs; r++ {
			an, err := core.Analyze(sample, core.AnalyzerConfig{K: 2})
			if err != nil {
				return tab, err
			}
			total += an.Elapsed
		}
		ms := total.Seconds() * 1000 / float64(runs)
		tab.Rows = append(tab.Rows, []string{string(ds), f2(ms)})
	}
	return tab, nil
}

// --- Fig. 19: all datasets, query and update costs ----------------------------

// RunFig19 reproduces Fig. 19(a-d): the four setups across the five data
// sets, reporting average query I/O, query time, update I/O and update time.
func RunFig19(sc Scale, seed int64) (Table, error) {
	tab := Table{
		Title: "Fig. 19 — all data sets (query I/O, query ms, update I/O, update ms)",
		Header: []string{"dataset", "setup", "query I/O", "query ms",
			"update I/O", "update ms"},
	}
	for _, ds := range workload.Datasets() {
		for _, s := range AllSetups() {
			gen, err := workload.NewGenerator(params(ds, sc, seed))
			if err != nil {
				return tab, err
			}
			m, err := Run(s, gen, sc.Buffer)
			if err != nil {
				return tab, fmt.Errorf("%s/%s: %w", ds, s, err)
			}
			tab.Rows = append(tab.Rows, []string{
				string(ds), string(s),
				f1(m.QueryIO), f3(m.QueryMs), f2(m.UpdateIO), f3(m.UpdateMs),
			})
		}
	}
	return tab, nil
}

// --- Fig. 20-24: parameter sweeps ---------------------------------------------

// sweep runs the four setups over a parameter sweep, mutating params per
// point.
func sweep(title string, xName string, xs []float64, sc Scale, seed int64,
	mut func(*workload.Params, float64)) (Table, error) {

	tab := Table{
		Title:  title,
		Header: []string{xName, "Bx IO", "Bx(VP) IO", "TPR* IO", "TPR*(VP) IO", "Bx ms", "Bx(VP) ms", "TPR* ms", "TPR*(VP) ms"},
	}
	for _, x := range xs {
		row := []string{f1(x)}
		var ios, times []string
		for _, s := range AllSetups() {
			p := params(workload.Chicago, sc, seed)
			mut(&p, x)
			gen, err := workload.NewGenerator(p)
			if err != nil {
				return tab, err
			}
			m, err := Run(s, gen, sc.Buffer)
			if err != nil {
				return tab, fmt.Errorf("%s x=%g: %w", s, x, err)
			}
			ios = append(ios, f1(m.QueryIO))
			times = append(times, f3(m.QueryMs))
		}
		row = append(row, ios...)
		row = append(row, times...)
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// RunFig20 sweeps the object count (paper: 100K..500K).
func RunFig20(sizes []int, sc Scale, seed int64) (Table, error) {
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	return sweep("Fig. 20 — effect of data size on range query", "objects", xs, sc, seed,
		func(p *workload.Params, x float64) { p.NumObjects = int(x) })
}

// RunFig21 sweeps the maximum object speed (paper: 20..200 m/ts).
func RunFig21(speeds []float64, sc Scale, seed int64) (Table, error) {
	return sweep("Fig. 21 — effect of maximum object speed", "max speed", speeds, sc, seed,
		func(p *workload.Params, x float64) { p.MaxSpeed = x })
}

// RunFig22 sweeps the circular query radius (paper: 100..1000 m).
func RunFig22(radii []float64, sc Scale, seed int64) (Table, error) {
	return sweep("Fig. 22 — effect of range query size", "radius", radii, sc, seed,
		func(p *workload.Params, x float64) { p.QueryRadius = x })
}

// RunFig23 sweeps the query predictive time (paper: 20..120 ts).
func RunFig23(times []float64, sc Scale, seed int64) (Table, error) {
	return sweep("Fig. 23 — effect of query predictive time (circle)", "predictive ts",
		times, sc, seed,
		func(p *workload.Params, x float64) { p.PredictiveTime = x })
}

// RunFig24 repeats the predictive-time sweep with 1000x1000 m rectangular
// queries.
func RunFig24(times []float64, sc Scale, seed int64) (Table, error) {
	return sweep("Fig. 24 — effect of query predictive time (rectangle)", "predictive ts",
		times, sc, seed,
		func(p *workload.Params, x float64) {
			p.PredictiveTime = x
			p.UseRectQueries = true
		})
}

// --- DVA illustration (Fig. 10-13) ---------------------------------------------

// RunDVADump reproduces the velocity-analyzer illustrations: it reports the
// DVAs and taus found on a dataset's sample (Fig. 11/13) plus what the two
// naive approaches would have found (Fig. 10), as a table; the raw sample
// can be dumped via cmd/datagen for plotting.
func RunDVADump(ds workload.Dataset, sc Scale, seed int64) (Table, error) {
	p := params(ds, sc, seed)
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return Table{}, err
	}
	sample := gen.VelocitySample(p.SampleSize)
	tab := Table{
		Title:  fmt.Sprintf("Fig. 10-13 — DVA discovery on %s (sample %d)", ds, len(sample)),
		Header: []string{"method", "axis", "angle deg", "tau", "kept", "outliers"},
	}

	an, err := core.Analyze(sample, core.AnalyzerConfig{K: 2})
	if err != nil {
		return tab, err
	}
	for i, d := range an.Frames {
		if d.IsOutlier {
			continue
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("VP (partition %d)", i),
			fmt.Sprintf("(%.3f, %.3f)", d.Axis.X, d.Axis.Y),
			f1(d.Axis.Angle() * 180 / math.Pi),
			f2(d.Tau), fmt.Sprint(d.Count), fmt.Sprint(d.OutlierCount),
		})
	}

	// Naive approach I: plain PCA over everything.
	if res, err := pcaAnalyze(sample); err == nil {
		tab.Rows = append(tab.Rows, []string{
			"naive I (PCA)",
			fmt.Sprintf("(%.3f, %.3f)", res.X, res.Y),
			f1(res.Angle() * 180 / math.Pi),
			"-", fmt.Sprint(len(sample)), "0",
		})
	}

	// Naive approach II: centroid k-means then PCA per cluster.
	cens, err := centroidAxes(sample, seed)
	if err == nil {
		for i, ax := range cens {
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("naive II (cluster %d)", i),
				fmt.Sprintf("(%.3f, %.3f)", ax.X, ax.Y),
				f1(ax.Angle() * 180 / math.Pi),
				"-", "-", "-",
			})
		}
	}
	return tab, nil
}
