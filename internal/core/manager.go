package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/parallel"
)

// PartitionSpec describes one partition to the index factory.
type PartitionSpec struct {
	// Name labels the partition ("dva0", ..., "outlier"; "speed0", ...;
	// "all" for the unpartitioned objective).
	Name string
	// Domain is the data-space bound in the partition's own coordinate
	// frame: the rotated bound of the world domain for DVA partitions, the
	// world domain itself for identity-rotation partitions. Grid-based
	// indexes (the Bx-tree) size their grids from it.
	Domain geom.Rect
	// Axis is the DVA direction (zero vector for every other partition).
	Axis geom.Vec2
	// IsOutlier marks the DVA layout's outlier partition.
	IsOutlier bool
	// Frame is the full partition frame the spec was built from.
	Frame Frame
}

// IndexFactory builds the underlying moving-object index for one partition.
// All partitions of one manager conventionally share a buffer pool so the
// paper's 50-page RAM budget covers the whole structure.
type IndexFactory func(spec PartitionSpec) (model.Index, error)

// ManagerConfig parameterizes the VP index manager.
type ManagerConfig struct {
	// Domain is the world data space (Table 1: 100,000 x 100,000 m).
	Domain geom.Rect
	// TauRefreshInterval recomputes each partition's tau after this many
	// routed inserts (Section 5.5). <= 0 disables refresh.
	TauRefreshInterval int
	// TauBuckets sizes the online tau histograms (default 100).
	TauBuckets int
	// SearchParallelism bounds the worker pool that fans Search/SearchKNN
	// out across the partitions. 0 means GOMAXPROCS; 1 forces the strictly
	// sequential partition loop (the baseline the parallel path must match
	// byte for byte).
	SearchParallelism int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Domain.IsEmpty() || c.Domain.Area() == 0 {
		c.Domain = geom.R(0, 0, 100000, 100000)
	}
	if c.TauBuckets <= 0 {
		c.TauBuckets = 100
	}
	return c
}

// partition is one live partition: the underlying index plus the frame
// transform and routing state.
type partition struct {
	spec     PartitionSpec
	idx      model.Index
	rot      geom.Mat2 // world -> partition frame
	identity bool      // rot is the identity: skip query/object transforms
	frame    Frame
	axis     geom.Vec2
	tau      float64       // live outlier threshold (DVA partitions)
	hist     *tauHistogram // online |v_perp| distribution (DVA partitions)
}

// record tracks where an object lives and its last known state; the paper's
// "simple lookup table" used by deletion (Section 5.3) and by the exact
// refinement step of Algorithm 3.
type record struct {
	obj  model.Object
	part int
}

// Manager is the VP technique's index manager, generalized over
// partitioning objectives: one index per partition frame — k rotated DVA
// indexes plus an outlier index, concentric speed-band indexes, or a single
// unpartitioned index — behind the model.Index interface. It is safe for
// concurrent use; updates that migrate an object between partitions hold
// the manager lock for the whole delete+insert so queries never observe the
// object as missing (the locking concern of Section 5.3), while
// Search/SearchKNN run under the read lock and fan out across the
// partitions in parallel — partition independence (each object lives in
// exactly one partition, and partition indexes share no mutable state on
// their query paths) is exactly what makes the fan-out safe.
type Manager struct {
	mu   sync.RWMutex
	cfg  ManagerConfig
	kind PartitionerKind
	pars []partition // one per analysis frame, in frame order

	objs map[model.ObjectID]record

	insertsSinceRefresh int
	name                string
}

var _ model.Index = (*Manager)(nil)

// frameName labels one partition frame for the index factory.
func frameName(kind PartitionerKind, i int, f Frame) string {
	switch {
	case f.IsOutlier:
		return "outlier"
	case kind == KindSpeed:
		return fmt.Sprintf("speed%d", i)
	case kind == KindNone:
		return "all"
	default:
		return fmt.Sprintf("dva%d", i)
	}
}

// buildPartitions constructs the live partition set for a validated
// analysis: one index per frame, rotated domains for DVA frames, online tau
// histograms only where tau routing applies.
func buildPartitions(an Analysis, cfg ManagerConfig, factory IndexFactory) ([]partition, error) {
	pars := make([]partition, 0, len(an.Frames))
	for i, f := range an.Frames {
		rot := f.Rotation()
		identity := f.Identity()
		domain := cfg.Domain
		if !identity {
			domain = cfg.Domain.BoundOfTransformed(rot)
		}
		spec := PartitionSpec{
			Name:      frameName(an.Kind, i, f),
			Domain:    domain,
			Axis:      f.Axis,
			IsOutlier: f.IsOutlier,
			Frame:     f,
		}
		idx, err := factory(spec)
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", spec.Name, err)
		}
		p := partition{
			spec: spec, idx: idx, rot: rot, identity: identity,
			frame: f, axis: f.Axis, tau: f.Tau,
		}
		if an.Kind == KindDVA && !f.IsOutlier {
			// The online tau histogram spans up to the world-domain diagonal
			// speed scale: use 4x the analysis tau (or 1 if zero) padded; the
			// exact limit only affects resolution, not correctness.
			limit := f.Tau * 4
			if limit <= 0 {
				limit = 1
			}
			p.hist = newTauHistogram(limit, cfg.TauBuckets)
		}
		pars = append(pars, p)
	}
	return pars, nil
}

// NewManager builds the partition set from a completed velocity analysis,
// whatever objective produced it.
func NewManager(an Analysis, cfg ManagerConfig, factory IndexFactory) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := an.Validate(); err != nil {
		return nil, err
	}
	pars, err := buildPartitions(an, cfg, factory)
	if err != nil {
		return nil, err
	}
	return &Manager{
		cfg:  cfg,
		kind: an.Kind,
		pars: pars,
		objs: make(map[model.ObjectID]record),
		name: "vp",
	}, nil
}

// Kind returns the partitioning objective behind the live partition set.
func (m *Manager) Kind() PartitionerKind {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.kind
}

// SetName overrides the reported index name.
func (m *Manager) SetName(s string) { m.name = s }

// Name implements model.Index.
func (m *Manager) Name() string { return m.name }

// Len implements model.Index.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objs)
}

// IO implements model.Index. When all partitions share one buffer pool
// (internal/bench's layout) any partition's counters are the manager's,
// so the outlier partition is used as the representative. The Store, which
// gives each partition its own pool, aggregates across its pools itself
// instead of calling this.
func (m *Manager) IO() model.IOStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pars[len(m.pars)-1].idx.IO()
}

// NumPartitions returns the number of partitions including the outlier.
func (m *Manager) NumPartitions() int { return len(m.pars) }

// PartitionInfo is the read-only view of one partition used by experiments
// and diagnostics.
type PartitionInfo struct {
	Spec  PartitionSpec
	Index model.Index
	Rot   geom.Mat2
	Frame Frame
	Tau   float64
	Size  int
}

// Partitions snapshots the partition set.
func (m *Manager) Partitions() []PartitionInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]PartitionInfo, len(m.pars))
	for i, p := range m.pars {
		out[i] = PartitionInfo{Spec: p.spec, Index: p.idx, Rot: p.rot, Frame: p.frame, Tau: p.tau, Size: p.idx.Len()}
	}
	return out
}

// route decides the partition for an object under the live objective.
// KindDVA: the DVA whose axis is closest in perpendicular velocity
// distance, or the outlier partition when that distance exceeds the DVA's
// (online-refreshed) tau (Section 5.3) — feeding the chosen DVA's tau
// histogram on the way. KindSpeed: the band containing |v|. KindNone: the
// single partition.
func (m *Manager) route(o model.Object) int {
	switch m.kind {
	case KindSpeed:
		s := o.Vel.Norm()
		for i := range m.pars {
			if s < m.pars[i].frame.SpeedMax {
				return i
			}
		}
		return len(m.pars) - 1
	case KindNone:
		return 0
	}
	best := -1
	bestDist := 0.0
	for i := range m.pars {
		p := &m.pars[i]
		if p.spec.IsOutlier {
			continue
		}
		d := o.Vel.PerpDistToAxis(p.axis)
		if best == -1 || d < bestDist {
			best = i
			bestDist = d
		}
	}
	if best == -1 {
		return len(m.pars) - 1
	}
	m.pars[best].hist.Add(bestDist)
	if bestDist > m.pars[best].tau {
		return len(m.pars) - 1 // outlier partition
	}
	return best
}

// maybeRefreshTau recomputes every DVA's tau from its online histogram
// after TauRefreshInterval routed inserts (Section 5.5). n is how many
// routed inserts the caller just performed — batch entry points count a
// whole batch at once so the refresh check runs once per batch instead of
// once per record. Caller holds mu.
func (m *Manager) maybeRefreshTau(n int) {
	if m.cfg.TauRefreshInterval <= 0 {
		return
	}
	m.insertsSinceRefresh += n
	if m.insertsSinceRefresh < m.cfg.TauRefreshInterval {
		return
	}
	m.insertsSinceRefresh = 0
	for i := range m.pars {
		if m.pars[i].hist == nil || m.pars[i].hist.total == 0 {
			continue
		}
		m.pars[i].tau = m.pars[i].hist.Optimal()
	}
}

// Insert implements model.Index.
func (m *Manager) Insert(o model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.objs[o.ID]; dup {
		return fmt.Errorf("core: insert of object %d: %w", o.ID, model.ErrDuplicate)
	}
	pi := m.route(o)
	if err := m.insertInto(pi, o); err != nil {
		return err
	}
	m.objs[o.ID] = record{obj: o, part: pi}
	m.maybeRefreshTau(1)
	return nil
}

// InsertBulk loads many new objects under a single lock acquisition with one
// tau-refresh pass at the end. This is the migration hook: the package-root
// Store's partition swap uses it to move a shard's whole population into a
// freshly built manager, and loaders use it to amortize locking during
// initial load. All objects must be new; a duplicate aborts the load at that
// record (earlier records stay inserted).
func (m *Manager) InsertBulk(objs []model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range objs {
		if _, dup := m.objs[o.ID]; dup {
			return fmt.Errorf("core: bulk insert of object %d: %w", o.ID, model.ErrDuplicate)
		}
		pi := m.route(o)
		if err := m.insertInto(pi, o); err != nil {
			return err
		}
		m.objs[o.ID] = record{obj: o, part: pi}
	}
	m.maybeRefreshTau(len(objs))
	return nil
}

// insertInto stores o (world frame) into partition pi, transforming into
// its coordinate frame first ("a simple matrix multiplication between the
// coordinates of o and the 1st PC of imin").
func (m *Manager) insertInto(pi int, o model.Object) error {
	p := &m.pars[pi]
	if p.identity {
		return p.idx.Insert(o)
	}
	return p.idx.Insert(o.Transform(p.rot))
}

// deleteFrom removes o (world frame) from partition pi.
func (m *Manager) deleteFrom(pi int, o model.Object) error {
	p := &m.pars[pi]
	if p.identity {
		return p.idx.Delete(o)
	}
	return p.idx.Delete(o.Transform(p.rot))
}

// Delete implements model.Index. Only the ID is consulted: the partition
// and exact stored record come from the lookup table.
func (m *Manager) Delete(o model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.objs[o.ID]
	if !ok {
		return fmt.Errorf("core: delete of object %d: %w", o.ID, model.ErrNotFound)
	}
	if err := m.deleteFrom(rec.part, rec.obj); err != nil {
		return err
	}
	delete(m.objs, o.ID)
	return nil
}

// replaceLocked moves an existing record rec to the new state o (delete from
// its current partition, re-route, insert), rolling back on failure. Caller
// holds mu and has verified rec is the table entry for o.ID.
func (m *Manager) replaceLocked(rec record, o model.Object) error {
	if err := m.deleteFrom(rec.part, rec.obj); err != nil {
		return err
	}
	pi := m.route(o)
	if err := m.insertInto(pi, o); err != nil {
		// Best-effort rollback: put the old record back so the index and
		// the lookup table stay consistent; surface both errors if even
		// that fails.
		if rerr := m.insertInto(rec.part, rec.obj); rerr != nil {
			return fmt.Errorf("core: update failed (%w) and rollback failed (%v)", err, rerr)
		}
		return err
	}
	m.objs[o.ID] = record{obj: o, part: pi}
	return nil
}

// Update implements model.Index: deletion followed by insertion, possibly
// migrating the object to a different partition when its direction of
// travel changed (Section 5.3). The whole move happens under one lock.
func (m *Manager) Update(old, new model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.objs[old.ID]
	if !ok {
		return fmt.Errorf("core: update of object %d: %w", old.ID, model.ErrNotFound)
	}
	if new.ID != old.ID {
		return fmt.Errorf("core: update changes object id %d -> %d", old.ID, new.ID)
	}
	if err := m.replaceLocked(rec, new); err != nil {
		return err
	}
	m.maybeRefreshTau(1)
	return nil
}

// reportLocked applies one ID-keyed upsert without the tau-refresh check.
// Caller holds mu.
func (m *Manager) reportLocked(o model.Object) error {
	if rec, ok := m.objs[o.ID]; ok {
		return m.replaceLocked(rec, o)
	}
	pi := m.route(o)
	if err := m.insertInto(pi, o); err != nil {
		return err
	}
	m.objs[o.ID] = record{obj: o, part: pi}
	return nil
}

// Report applies an ID-keyed upsert: insert if the object is new, otherwise
// an update driven entirely by the lookup table — the caller never supplies
// the old record. This is the production verb of a location-report stream.
func (m *Manager) Report(o model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.reportLocked(o); err != nil {
		return err
	}
	m.maybeRefreshTau(1)
	return nil
}

// ReportBatch applies many ID-keyed upserts under a single lock acquisition
// with one tau-refresh check at the end, amortizing both costs across the
// batch. It returns how many records were applied; on error the first
// `applied` records are in the index and the rest are not.
func (m *Manager) ReportBatch(objs []model.Object) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range objs {
		if err := m.reportLocked(objs[i]); err != nil {
			m.maybeRefreshTau(i)
			return i, fmt.Errorf("core: batch report of object %d: %w", objs[i].ID, err)
		}
	}
	m.maybeRefreshTau(len(objs))
	return len(objs), nil
}

// UpdateByID is a convenience for callers that only track current state:
// the old record comes from the lookup table.
func (m *Manager) UpdateByID(new model.Object) error {
	m.mu.RLock()
	rec, ok := m.objs[new.ID]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: update of object %d: %w", new.ID, model.ErrNotFound)
	}
	return m.Update(rec.obj, new)
}

// Search implements model.Index: Algorithm 3. The query is transformed into
// each rotated partition frame (its region bounded by an axis-aligned MBR
// there), the partitions are probed by a bounded worker pool
// (cfg.SearchParallelism) into per-partition result buffers, and after the
// joins the buffers are merged in partition order, so the output is
// byte-identical to the sequential loop. Identity-rotation partitions — the
// DVA layout's outlier index, every speed band, the unpartitioned objective
// — take the query unchanged.
//
// The merge is the exact refinement of Algorithm 3 line 8, driven entirely
// by the lookup table: a candidate id counts only if the table places it in
// the partition that returned it (which also makes cross-partition
// duplicates structurally impossible — no seen-set needed). Rotated-frame
// candidates of rectangular queries are re-checked against the original
// query in the world frame, because a rotated rectangle is only
// conservatively bounded by its MBR in the partition frame. Circular
// queries skip that re-check on the hot path: rotations are isometries, so
// the circle survives the frame change exactly and the partition index's
// own Matches refinement already was the exact world-frame predicate.
// Identity-rotation candidates always skip it: their partition ran the
// query unchanged.
func (m *Manager) Search(q model.RangeQuery) ([]model.ObjectID, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lists := make([][]model.ObjectID, len(m.pars))
	err := parallel.Do(len(m.pars), m.cfg.SearchParallelism, func(i int) error {
		p := &m.pars[i]
		pq := q
		if !p.identity {
			pq = q.Transform(p.rot)
		}
		ids, err := p.idx.Search(pq)
		if err != nil {
			return err
		}
		lists[i] = ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ids := range lists {
		total += len(ids)
	}
	exactInFrame := q.IsCircle()
	out := make([]model.ObjectID, 0, total)
	for i, ids := range lists {
		recheck := !m.pars[i].identity && !exactInFrame
		for _, id := range ids {
			rec, ok := m.objs[id]
			if !ok || rec.part != i {
				continue
			}
			if recheck && !model.Matches(rec.obj, q) {
				continue
			}
			out = append(out, id)
		}
	}
	return out, nil
}

// Objects snapshots every live record in the world frame (iteration order
// is unspecified). This is the migration surface of a partition rebuild:
// the Store reads one manager's population and InsertBulks it into a
// freshly built one.
func (m *Manager) Objects() []model.Object {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]model.Object, 0, len(m.objs))
	for _, rec := range m.objs {
		out = append(out, rec.obj)
	}
	return out
}

// Get returns the current world-frame record for an object.
func (m *Manager) Get(id model.ObjectID) (model.Object, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.objs[id]
	return rec.obj, ok
}

// Tau returns the current outlier threshold of DVA partition i.
func (m *Manager) Tau(i int) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pars[i].tau
}

// SetTau overrides the outlier threshold of DVA partition i; used by the
// fixed-tau sweep experiment (Fig. 17). It affects future routing only.
func (m *Manager) SetTau(i int, tau float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pars[i].tau = tau
}

// DriftMax is the objective distance Drift reports when a fresh analysis is
// structurally incomparable to the live partition set (different objective
// kind or partition count): the largest possible axis angle, so any
// positive drift threshold trips and the partitions are rebuilt.
const DriftMax = math.Pi / 2

// Drift returns the objective distance (radians-scaled, in [0, DriftMax])
// between the live partition set and a fresh analysis — the signal Section
// 5.5 says should trigger re-partitioning when "the dominant direction of
// object travel changes significantly", generalized across objectives:
//
//   - KindDVA vs KindDVA: the largest angle between a live axis and its
//     closest fresh axis (each live axis matched independently).
//   - KindSpeed vs KindSpeed: the largest relative shift of a band
//     threshold, scaled by DriftMax so a full-range move compares to axis
//     drift on the same threshold scale.
//   - KindNone vs KindNone: 0 (nothing to drift).
//   - Any kind or partition-count mismatch: DriftMax. This is also the
//     guard against an Analysis with a different K than the live manager —
//     a structurally different candidate always reads as maximally
//     drifted, never as a partial match over mismatched indices.
func (m *Manager) Drift(an Analysis) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if an.Kind != m.kind || len(an.Frames) != len(m.pars) {
		return DriftMax
	}
	worst := 0.0
	switch m.kind {
	case KindNone:
		return 0
	case KindSpeed:
		scale := 0.0
		for _, p := range m.pars {
			if !math.IsInf(p.frame.SpeedMax, 1) && p.frame.SpeedMax > scale {
				scale = p.frame.SpeedMax
			}
		}
		for _, f := range an.Frames {
			if !math.IsInf(f.SpeedMax, 1) && f.SpeedMax > scale {
				scale = f.SpeedMax
			}
		}
		if scale == 0 {
			return 0
		}
		for i, p := range m.pars {
			old, fresh := p.frame.SpeedMax, an.Frames[i].SpeedMax
			if math.IsInf(old, 1) || math.IsInf(fresh, 1) {
				continue // the top band's bound is structural, not a threshold
			}
			if d := math.Abs(old-fresh) / scale * DriftMax; d > worst {
				worst = d
			}
		}
	default: // KindDVA
		for i := range m.pars {
			if m.pars[i].spec.IsOutlier {
				continue
			}
			best := DriftMax
			for _, f := range an.Frames {
				if f.IsOutlier {
					continue
				}
				cos := math.Abs(m.pars[i].axis.Normalize().Dot(f.Axis.Normalize()))
				if cos > 1 {
					cos = 1
				}
				if a := math.Acos(cos); a < best {
					best = a
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	return worst
}
