package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/model"
	"repro/internal/storage"
)

const (
	// FullName is the full snapshot's file name in the data directory.
	FullName  = "checkpoint.ckpt"
	tmpName   = "checkpoint.tmp"
	deltaGlob = "ckpt-*.delta"
)

// DeltaName names one delta-chain element. The zero-padded generation makes
// lexical directory order equal generation order.
func DeltaName(gen uint64) string { return fmt.Sprintf("ckpt-%020d.delta", gen) }

// Write persists e in dir — as FullName, or as DeltaName(e.Gen) for a delta —
// with the shadow-file protocol: write to a tmp file, fsync it, rename to the
// target, fsync the directory. A crash anywhere leaves either the old element
// set or the new one, never a torn file. The fault injector gates the write
// and both fsyncs, so the kill matrix exercises every crash position. Returns
// the element's encoded size.
func Write(dir string, e Element, fi *storage.FaultInjector) (int64, error) {
	if err := fi.BeforeWrite(); err != nil {
		return 0, err
	}
	name := FullName
	if e.Delta {
		name = DeltaName(e.Gen)
	}
	tmp := filepath.Join(dir, tmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	cleanup := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	enc := Encode(e)
	if _, err := f.Write(enc); err != nil {
		return cleanup(fmt.Errorf("ckpt: write: %w", err))
	}
	if err := fi.BeforeSync(); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("ckpt: fsync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("ckpt: rename: %w", err)
	}
	if err := fi.BeforeSync(); err != nil {
		return 0, err
	}
	if err := storage.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	return int64(len(enc)), nil
}

// load reads and decodes one chain element, and returns its size on disk.
func load(path string) (Element, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Element{}, 0, err
	}
	e, err := Decode(b)
	return e, int64(len(b)), err
}

// ReadChain loads the checkpoint chain in dir: the full snapshot followed by
// its delta files in generation order, and the deltas' total size on disk.
// Deltas at or below the full snapshot's generation are pre-compaction
// leftovers and are deleted; a gap in the parent linkage means a missing
// element, which is corruption the shadow-write protocol cannot produce, so it
// surfaces as an error rather than a silently shortened history. Returns an
// empty chain when no checkpoint exists yet.
func ReadChain(dir string) (chain []Element, deltaBytes int64, err error) {
	full, _, err := load(filepath.Join(dir, FullName))
	noBase := errors.Is(err, os.ErrNotExist)
	if err != nil && !noBase {
		return nil, 0, err
	}
	names, err := filepath.Glob(filepath.Join(dir, deltaGlob))
	if err != nil {
		return nil, 0, err
	}
	slices.Sort(names) // zero-padded generations: lexical order == chain order
	if noBase {
		if len(names) > 0 {
			return nil, 0, fmt.Errorf("ckpt: %d delta file(s) with no full snapshot", len(names))
		}
		return nil, 0, nil
	}
	chain = []Element{full}
	for _, name := range names {
		e, size, err := load(name)
		if err != nil {
			return nil, 0, err
		}
		if !e.Delta {
			return nil, 0, fmt.Errorf("ckpt: %s is not a delta element", filepath.Base(name))
		}
		if e.Gen <= full.Gen {
			_ = os.Remove(name) // folded into the full snapshot by a compaction
			continue
		}
		if prev := chain[len(chain)-1].Gen; e.ParentGen != prev {
			return nil, 0, fmt.Errorf("ckpt: delta chain gap at gen %d (parent %d, want %d)", e.Gen, e.ParentGen, prev)
		}
		chain = append(chain, e)
		deltaBytes += size
	}
	return chain, deltaBytes, nil
}

// RemoveDeltas deletes every delta file in dir at or below generation gen —
// the ones a full snapshot at gen made stale. Best-effort: ReadChain skips
// (and deletes) any that survive.
func RemoveDeltas(dir string, gen uint64) {
	names, err := filepath.Glob(filepath.Join(dir, deltaGlob))
	if err != nil {
		return
	}
	stale := filepath.Join(dir, DeltaName(gen))
	for _, name := range names {
		if name <= stale {
			_ = os.Remove(name)
		}
	}
}

// Fold merges a full snapshot and its deltas (in chain order) into one full
// Element carrying the last element's generation and LSN: later object
// versions win, tombstones delete — within one element the two sets are
// disjoint, and a tombstone may name an id no earlier element carried (insert
// and remove between two captures) — and the newest analysis and registry
// sections carry over. Objects come out in ascending id order. Compaction
// writes the result back; recovery loads it.
func Fold(chain []Element) Element {
	last := chain[len(chain)-1]
	out := Element{Gen: last.Gen, LSN: last.LSN}
	objs := make(map[model.ObjectID]model.Object, len(chain[0].Objects))
	for _, e := range chain {
		for _, o := range e.Objects {
			objs[o.ID] = o
		}
		for _, id := range e.Tombs {
			delete(objs, id)
		}
		if e.Partitioned {
			out.Analysis, out.Partitioned = e.Analysis, true
		}
		if e.HasEngine {
			out.HasEngine = true
			out.Clock, out.NextID, out.Subs = e.Clock, e.NextID, e.Subs
		}
	}
	out.Objects = make([]model.Object, 0, len(objs))
	for _, o := range objs {
		out.Objects = append(out.Objects, o)
	}
	slices.SortFunc(out.Objects, func(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
