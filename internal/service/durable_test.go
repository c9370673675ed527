package service

// The restart-warm oracle suite: seeded mutation schedules against a
// durable service whose process "dies" (the instance is abandoned without
// Close, exactly what kill -9 leaves behind: an open WAL with every
// acknowledged record fsync'd) at random points and is reopened from the
// data directory. After every recovery — and at every interleaved query —
// relation contents, registry versions, and skylines must be
// byte-identical to plain mirrors that replayed the same acknowledged
// mutations without ever crashing. Checkpoints are interleaved too, so
// recovery exercises every mix of segment generation + WAL tail.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// durableConfig disables every background goroutine so an abandoned
// instance is inert: nothing sweeps or checkpoints behind the test's
// back, and dropping the instance on the floor models a hard kill.
func durableConfig() Config {
	return Config{SweepInterval: -1, CheckpointInterval: -1}
}

func TestDurableRestartOracle(t *testing.T) {
	conds := []join.Condition{join.Equality, join.BandLess}
	for i, cond := range conds {
		cond, seed := cond, int64(4100+31*i)
		t.Run(cond.Token(), func(t *testing.T) {
			t.Parallel()
			runDurableRestartOracle(t, cond, seed)
		})
	}
}

func runDurableRestartOracle(t *testing.T, cond join.Condition, seed int64) {
	const (
		window    = 45 * time.Second
		mutations = 150
	)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	// One fake clock shared by every incarnation of the service, injected
	// into recovery too, so window arrival stamps live in fake time across
	// crashes and the shadow arrival log below predicts every sweep cut.
	var (
		clockMu sync.Mutex
		current = time.Unix(1_700_000_000, 0)
	)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return current
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		current = current.Add(d)
		clockMu.Unlock()
	}

	s, err := open(durableConfig(), dir, clock)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	r1 := testRelation("r1", 35, 3, 1, 5, seed)
	r2 := testRelation("r2", 35, 3, 1, 5, seed+1)
	mirrors := map[string]*dataset.Relation{"r1": r1.Clone(), "r2": r2.Clone()}
	versions := map[string]uint64{"r1": 1, "r2": 1}
	arrivals := make([]int64, r1.Len())
	for i := range arrivals {
		arrivals[i] = clock().UnixNano()
	}
	if _, err := s.RegisterWindow("r1", r1, window); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("r2", r2); err != nil {
		t.Fatal(err)
	}

	tok := cond.Token()
	ctx := context.Background()
	recompute := func(k int) []join.Pair {
		t.Helper()
		q := core.Query{
			R1: mirrors["r1"].Clone(), R2: mirrors["r2"].Clone(),
			Spec: join.Spec{Cond: cond, Agg: join.Sum}, K: k,
		}
		res, err := core.Run(q, core.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		return res.Skyline
	}
	// verifyRegistry is the recovery assertion: every mirror present at its
	// exact version with byte-equal contents, nothing extra registered.
	verifyRegistry := func(label string) {
		t.Helper()
		infos := s.Relations()
		if len(infos) != len(mirrors) {
			t.Fatalf("%s: registry holds %d relations, mirrors hold %d", label, len(infos), len(mirrors))
		}
		for name, m := range mirrors {
			rel, v, err := s.Relation(name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if v != versions[name] {
				t.Fatalf("%s: %s at version %d, mirror says %d", label, name, v, versions[name])
			}
			if !m.EqualContents(rel) {
				t.Fatalf("%s: %s contents differ from mirror", label, name)
			}
		}
	}

	var crashes, checkpoints, registerCycles int
	for done, step := 0, 0; done < mutations; step++ {
		switch op := rng.Intn(20); {
		case op < 7: // insert batch
			name := "r1"
			if rng.Intn(2) == 1 {
				name = "r2"
			}
			ts := make([]dataset.Tuple, 1+rng.Intn(4))
			for i := range ts {
				ts[i] = oracleTuple(rng)
			}
			if _, err := s.InsertBatch(name, ts); err != nil {
				t.Fatalf("step %d: insert into %s: %v", step, name, err)
			}
			if _, err := mirrors[name].AppendBatch(ts); err != nil {
				t.Fatal(err)
			}
			versions[name]++
			if name == "r1" {
				now := clock().UnixNano()
				for range ts {
					arrivals = append(arrivals, now)
				}
			}
			done++
		case op < 12: // delete batch
			name := "r1"
			if rng.Intn(2) == 1 {
				name = "r2"
			}
			m := mirrors[name]
			if m.Len() < 2 {
				continue
			}
			b := 1 + rng.Intn(3)
			if rng.Intn(5) == 0 {
				b = 1 + m.Len()/4
			}
			if b > m.Len()-1 {
				b = m.Len() - 1
			}
			ids := deleteIDs(rng, m.Len(), b)
			if _, err := s.DeleteBatch(name, ids); err != nil {
				t.Fatalf("step %d: delete %v from %s: %v", step, ids, name, err)
			}
			if err := m.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
			versions[name]++
			if name == "r1" {
				arrivals = compactInt64(arrivals, ids)
			}
			done++
		case op < 14: // window expiry via Sweep (logged, so replay reproduces it)
			advance(time.Duration(5+rng.Intn(36)) * time.Second)
			deadline := clock().UnixNano() - int64(window)
			j := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] > deadline })
			if j >= len(arrivals) {
				j = len(arrivals) - 1
			}
			if got := s.Sweep(); got != j {
				t.Fatalf("step %d: Sweep expired %d rows, want %d", step, got, j)
			}
			if j > 0 {
				ids := make([]int, j)
				for i := range ids {
					ids[i] = i
				}
				if err := mirrors["r1"].DeleteBatch(ids); err != nil {
					t.Fatal(err)
				}
				versions["r1"]++
				arrivals = append(arrivals[:0], arrivals[j:]...)
				done++
			}
		case op < 15: // register/unregister a third relation (both paths logged)
			if _, ok := mirrors["r3"]; ok {
				if err := s.Unregister("r3"); err != nil {
					t.Fatalf("step %d: unregister r3: %v", step, err)
				}
				delete(mirrors, "r3")
				delete(versions, "r3")
			} else {
				r3 := testRelation("r3", 10+rng.Intn(10), 3, 1, 5, seed+int64(step))
				mirrors["r3"] = r3.Clone()
				versions["r3"] = 1
				if _, err := s.Register("r3", r3); err != nil {
					t.Fatalf("step %d: register r3: %v", step, err)
				}
			}
			registerCycles++
			done++
		case op < 16: // checkpoint: fold the WAL into a fresh segment generation
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
			checkpoints++
		case op < 18: // crash: abandon without Close, reopen from the dir
			crashes++
			s, err = open(durableConfig(), dir, clock)
			if err != nil {
				t.Fatalf("step %d: reopening after crash %d: %v", step, crashes, err)
			}
			// Recovered rows arrive "at recovery" (stamps are not persisted);
			// the shadow log mirrors that reset.
			now := clock().UnixNano()
			for i := range arrivals {
				arrivals[i] = now
			}
			verifyRegistry(fmt.Sprintf("step %d: after crash %d", step, crashes))
		default: // query: byte-identical to a from-scratch run over the mirrors
			k := 5 + rng.Intn(3)
			resp, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: k, Join: tok, NoCache: rng.Intn(4) == 0})
			if err != nil {
				t.Fatalf("step %d: query k=%d: %v", step, k, err)
			}
			if resp.Versions != [2]uint64{versions["r1"], versions["r2"]} {
				t.Fatalf("step %d: answer at versions %v, mirrors at (%d,%d)",
					step, resp.Versions, versions["r1"], versions["r2"])
			}
			assertPairsIdentical(t, fmt.Sprintf("step %d k=%d", step, k), resp.Skyline, recompute(k))
		}
	}
	if crashes == 0 || checkpoints == 0 || registerCycles == 0 {
		t.Fatalf("schedule had no teeth: %d crashes, %d checkpoints, %d register cycles",
			crashes, checkpoints, registerCycles)
	}

	// Clean shutdown folds everything into segments; the next boot replays
	// no WAL and still agrees with the mirrors at every k.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = open(durableConfig(), dir, clock)
	if err != nil {
		t.Fatal(err)
	}
	closed = true
	defer s.Close()
	verifyRegistry("after clean restart")
	st := s.Stats()
	if !st.Durable || st.Segments != len(mirrors) || st.WALRecords != 0 {
		t.Fatalf("post-Close recovery stats: durable=%v segments=%d wal_records=%d (want true, %d, 0)",
			st.Durable, st.Segments, st.WALRecords, len(mirrors))
	}
	for k := 5; k <= 7; k++ {
		resp, err := s.Query(ctx, QueryRequest{R1: "r1", R2: "r2", K: k, Join: tok})
		if err != nil {
			t.Fatal(err)
		}
		assertPairsIdentical(t, fmt.Sprintf("final k=%d", k), resp.Skyline, recompute(k))
	}
}

// TestDurableAckSurvivesCrash is the headline guarantee in miniature:
// an insert whose call returned is on disk, a crash immediately after
// (no checkpoint, no Close) loses nothing.
func TestDurableAckSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := testRelation("r1", 20, 3, 1, 5, 7)
	mirror := r1.Clone()
	if _, err := s.Register("r1", r1); err != nil {
		t.Fatal(err)
	}
	tup := dataset.Tuple{Key: "g0001", Band: 0.5, Attrs: []float64{0.1, 0.2, 0.3, 0.4}}
	if _, err := s.Insert("r1", tup); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.AppendBatch([]dataset.Tuple{tup}); err != nil {
		t.Fatal(err)
	}
	// Crash: the instance is abandoned with its WAL fd open, like the
	// process image a kill -9 destroys.
	s2, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rel, v, err := s2.Relation("r1")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("recovered version %d, want 2 (register + one insert)", v)
	}
	if !mirror.EqualContents(rel) {
		t.Fatal("acknowledged insert missing after crash recovery")
	}
}

// TestDurableWarmRestart: resident combos recorded at checkpoint are
// rebuilt eagerly by recovery — the first post-restart query finds a warm
// index instead of paying the cold build.
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	registerPair(t, s, 40)
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // final checkpoint records the warm combo
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.residents.len(); got != 1 {
		t.Fatalf("recovery rebuilt %d residents, want 1", got)
	}
	st := s2.Stats()
	if st.Residents != 1 {
		t.Fatalf("stats report %d residents after warm restart, want 1", st.Residents)
	}
}

// TestDurabilityFailureLatches: once a WAL write fails, every mutation is
// refused with ErrDurability — no acknowledged-but-unlogged window — while
// queries keep serving.
func TestDurabilityFailureLatches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerPair(t, s, 30)
	// Sever the WAL out from under the service: the next append fails the
	// way a full or failing disk would.
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	tup := dataset.Tuple{Key: "g0001", Band: 0.5, Attrs: []float64{1, 2, 3, 4}}
	if _, err := s.Insert("r1", tup); !errors.Is(err, ErrDurability) {
		t.Fatalf("insert after WAL failure: %v, want ErrDurability", err)
	}
	// Latched: later mutations fail fast, before touching in-memory state.
	if _, err := s.DeleteBatch("r1", []int{0}); !errors.Is(err, ErrDurability) {
		t.Fatalf("delete after latch: %v, want ErrDurability", err)
	}
	if _, err := s.RegisterWindow("r3", testRelation("r3", 5, 3, 1, 5, 9), 0); !errors.Is(err, ErrDurability) {
		t.Fatalf("register after latch: %v, want ErrDurability", err)
	}
	if err := s.Unregister("r1"); !errors.Is(err, ErrDurability) {
		t.Fatalf("unregister after latch: %v, want ErrDurability", err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{R1: "r1", R2: "r2", K: 5}); err != nil {
		t.Fatalf("query after latch should still serve: %v", err)
	}
}

// TestQueuedMutationSeesLatch: a mutation queued behind a writer whose WAL
// write fails must see the latch once it gets the ingest lock — it is never
// applied, logged or acknowledged after the failure. The test plays that
// writer: it holds ingestMu, lets an insert queue behind it, latches the
// store and releases.
func TestQueuedMutationSeesLatch(t *testing.T) {
	s, err := Open(durableConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerPair(t, s, 30)
	before := s.Stats().WALRecords

	s.ingestMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Insert("r1", dataset.Tuple{Key: "g0001", Band: 0.5, Attrs: []float64{1, 2, 3, 4}})
		done <- err
	}()
	// Wait until the insert is parked on ingestMu inside commit, past any
	// check made before taking it.
	parked := func() bool {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, ".(*Service).commit(") {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !parked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.ingestMu.Unlock() // the deferred Close takes it
			t.Fatal("insert never queued on the ingest lock")
		}
	}
	s.storeBroken.Store(true)
	s.ingestMu.Unlock()

	if err := <-done; !errors.Is(err, ErrDurability) {
		t.Fatalf("insert queued behind the latch: %v, want ErrDurability", err)
	}
	r1, _, err := s.Relation("r1")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 30 {
		t.Fatalf("r1 has %d rows after the refused insert, want 30", r1.Len())
	}
	if got := s.Stats().WALRecords; got != before {
		t.Fatalf("refused insert moved WAL records %d → %d", before, got)
	}
}

// TestDurableRejectedMutationNotLogged: a mutation the service rejects
// (validation failure) must leave no WAL record — otherwise replay would
// apply what the caller was told failed.
func TestDurableRejectedMutationNotLogged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	registerPair(t, s, 10)
	before := s.Stats().WALRecords
	if _, err := s.DeleteBatch("r1", []int{999}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if _, err := s.InsertBatch("r1", []dataset.Tuple{{Key: "g", Attrs: []float64{1}}}); err == nil {
		t.Fatal("schema-violating insert accepted")
	}
	if _, err := s.Register("r1", testRelation("x", 5, 3, 1, 5, 1)); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if got := s.Stats().WALRecords; got != before {
		t.Fatalf("rejected mutations appended %d WAL records", got-before)
	}
	s.Close()

	s2, err := Open(durableConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, v, err := s2.Relation("r1"); err != nil || v != 1 {
		t.Fatalf("recovered r1 at version %d (err=%v), want 1", v, err)
	}
}

// TestCheckpointWALSizeTrigger: a durable service with a tiny
// CheckpointWALBytes checkpoints on its own once the WAL outgrows it,
// without waiting for the interval tick.
func TestCheckpointWALSizeTrigger(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SweepInterval:      -1,
		CheckpointInterval: time.Hour, // the tick never fires in this test
		CheckpointWALBytes: 256,
	}
	s, err := Open(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerPair(t, s, 20)
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size trigger never fired a checkpoint")
		}
		tup := dataset.Tuple{Key: "g0001", Band: 0.5, Attrs: []float64{1, 2, 3, 4}}
		if _, err := s.Insert("r1", tup); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LastCheckpointMS < 0 {
		t.Fatalf("last_checkpoint_ms = %d after a checkpoint", st.LastCheckpointMS)
	}
}
