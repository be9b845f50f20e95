package vpindex_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	vpindex "repro"
)

// TestOpensDataDirWrittenBeforeTheMove opens a data directory written by
// commit 8a49ddb — the last one whose checkpoint codec lived in durability.go
// and whose recovery replayed the chain element by element — and requires the
// state that commit recorded for it (testdata/datadir-8a49ddb.json): a full
// snapshot, one delta (an id inserted and removed inside it, one tombstoned in
// it and re-reported in the tail) and a seven-record WAL tail with a
// subscribe/unsubscribe pair. Neither the checkpoint nor the WAL bytes may
// change meaning.
func TestOpensDataDirWrittenBeforeTheMove(t *testing.T) {
	var want struct {
		Objects     []vpindex.Object       `json:"objects"`
		Sub1        []vpindex.ObjectID     `json:"sub1"`
		NumSubs     int                    `json:"num_subs"`
		Partitioned bool                   `json:"partitioned"`
		ChainLen    int64                  `json:"chain_len"`
		Replayed    int64                  `json:"replayed"`
		NextSubID   vpindex.SubscriptionID `json:"next_sub_id"`
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "datadir-8a49ddb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // Open writes (page file, log segment): work on a copy
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "datadir-8a49ddb"))); err != nil {
		t.Fatal(err)
	}
	s, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir), vpindex.WithSyncPolicy(vpindex.SyncAlways()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(want.Objects) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want.Objects))
	}
	wantIDs := make([]vpindex.ObjectID, 0, len(want.Objects))
	for _, o := range want.Objects {
		if got, ok := s.Get(o.ID); !ok || got != o {
			t.Fatalf("Get(%d) = %+v, %v; want %+v", o.ID, got, ok, o)
		}
		wantIDs = append(wantIDs, o.ID)
	}
	found, err := s.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(found), wantIDs) {
		t.Fatalf("Search = %v, want %v", found, wantIDs)
	}
	members, err := s.SubscriptionResults(1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(members), want.Sub1) {
		t.Fatalf("subscription 1 = %v, want %v", members, want.Sub1)
	}
	st, _ := s.DurabilityStats()
	if s.NumSubscriptions() != want.NumSubs || s.Partitioned() != want.Partitioned ||
		st.DeltaChainLen != want.ChainLen || st.ReplayedRecords != want.Replayed {
		t.Fatalf("subs %d partitioned %v chain %d replayed %d; want %d %v %d %d", s.NumSubscriptions(),
			s.Partitioned(), st.DeltaChainLen, st.ReplayedRecords, want.NumSubs, want.Partitioned, want.ChainLen, want.Replayed)
	}
	// The registry's id counter survived the unsubscribed id 2.
	if id, _, err := s.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: 1}, 0); err != nil || id != want.NextSubID {
		t.Fatalf("next subscription id = %d, %v; want %d", id, err, want.NextSubID)
	}
}

// TestHostileCheckpointCountRejected is the regression test for the wrapped
// bounds check in the checkpoint decoder: a CRC-valid checkpoint.ckpt whose
// object count is 2^63 (times 48 wraps to 0, which every length check passed)
// must fail Open with an error. Before the count was bounded by the bytes that
// remain, Open died in make with "makeslice: len out of range".
func TestHostileCheckpointCountRejected(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 0x5650434B) // "VPCK"
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, make([]byte, 3*8+1)...) // gen, parent gen, LSN, no flags
	b = binary.LittleEndian.AppendUint64(b, 1<<63)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[8:]))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...); err == nil {
		s.Close()
		t.Fatal("Open accepted a checkpoint claiming 2^63 objects")
	}
}

// TestRecoveryIgnoresPageFile states the durable layer's contract with its
// page file: pages.dat is scratch, and nothing in it is read by a later Open.
// A store is driven through reports, a full checkpoint, two deltas and a WAL
// tail, then stopped — cleanly, and by an injected kill in the tail — and
// before each reopen pages.dat is first overwritten with random bytes, then
// deleted. Every recovery must equal the brute-force survivor (objects, search
// answers, subscription result set). Anyone who starts trusting page images
// across opens breaks this test.
func TestRecoveryIgnoresPageFile(t *testing.T) {
	script := oracleScript(9090, 48)
	ckptAfter := map[int]bool{15: true, 27: true, 39: true}
	// run drives the script under fi and returns how many ops were
	// acknowledged before a crash (all of them on a clean run) and the sync
	// points reached by then.
	run := func(dir string, fi *vpindex.FaultInjector) (acked int, syncs int64) {
		store, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncAlways()), vpindex.WithFaultInjector(fi))...)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		for i, op := range script {
			if err := applyOp(store, op); err != nil {
				if !errors.Is(err, vpindex.ErrInjectedCrash) {
					t.Fatalf("op %d: %v", i, err)
				}
				return acked, fi.SyncPoints()
			}
			acked++
			if ckptAfter[i] {
				if err := store.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after op %d: %v", i, err)
				}
			}
		}
		if st, _ := store.DurabilityStats(); st.DeltaChainLen != 2 {
			t.Fatalf("chain length %d, want 2", st.DeltaChainLen)
		}
		return acked, fi.SyncPoints()
	}
	rng := rand.New(rand.NewSource(1))
	check := func(dir string, acked int, crashed bool) {
		t.Helper()
		pages := filepath.Join(dir, "pages.dat")
		for _, damage := range []string{"random bytes", "deleted"} {
			if damage == "deleted" {
				if err := os.Remove(pages); err != nil {
					t.Fatal(err)
				}
			} else {
				st, err := os.Stat(pages)
				if err != nil {
					t.Fatal(err)
				}
				junk := make([]byte, st.Size())
				rng.Read(junk)
				if err := os.WriteFile(pages, junk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...)
			if err != nil {
				t.Fatalf("pages.dat %s: %v", damage, err)
			}
			ok := matchesPrefix(t, rec, script, acked) ||
				(crashed && matchesPrefix(t, rec, script, acked+1))
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("pages.dat %s: recovered state is not the survivor of %d acknowledged ops", damage, acked)
			}
		}
	}

	dir := t.TempDir()
	acked, syncs := run(dir, vpindex.NewFaultInjector(0))
	if acked != len(script) {
		t.Fatalf("clean run acknowledged %d of %d ops", acked, len(script))
	}
	check(dir, acked, false)

	// The same run killed three sync points before its last op's: inside the
	// WAL tail, after the last delta.
	dir = t.TempDir()
	acked, _ = run(dir, vpindex.NewFaultInjector(syncs-3))
	if acked <= 40 || acked >= len(script) {
		t.Fatalf("kill landed at op %d, want inside the WAL tail (41..%d)", acked, len(script)-1)
	}
	check(dir, acked, true)
}
