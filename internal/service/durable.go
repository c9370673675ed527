// Durability integration: the WAL hooks the mutation paths call, the
// recovering constructor Open, and the background checkpointer. See
// DESIGN.md §14 and internal/store for the on-disk format.
//
// The contract with the store is narrow. Every acknowledged mutation
// appends one WAL record inside the commit's exclusive section — so log
// order is commit order — and fsyncs before the caller is acknowledged
// (the fsync itself runs after s.mu drops, so readers are not held behind
// the disk). Recovery replays the log through the same mutation paths that
// produced it, so registry versions advance exactly as they did live and
// the recovered service is indistinguishable from one that never stopped.
package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/store"
)

// writable fails a mutation once the service is closed or, on a durable
// service, once a WAL write has failed: the in-memory state may be ahead of
// the log, and accepting more mutations would widen the window of
// acknowledged-but-unlogged data. Every writer calls it once, holding
// ingestMu — the lock that orders writers — so no other writer can latch
// the store between the check and this writer's own WAL append. Queries
// never call it.
func (s *Service) writable() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.store != nil && s.storeBroken.Load() {
		return ErrDurability
	}
	return nil
}

// logAppend appends one WAL record in commit order; the caller holds the
// exclusive lock that ordered the commit. In-memory services and replay
// skip it. A failed append latches storeBroken.
func (s *Service) logAppend(rec store.Record) (uint64, error) {
	if s.store == nil || s.replaying {
		return 0, nil
	}
	seq, err := s.store.Append(rec)
	if err != nil {
		s.storeBroken.Store(true)
		return 0, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return seq, nil
}

// logSync fsyncs the WAL, which covers record seq — the durability point
// an acknowledgment waits on. After a successful sync it kicks the
// checkpointer if the WAL has outgrown the size trigger.
func (s *Service) logSync(seq uint64) error {
	if s.store == nil || s.replaying || seq == 0 {
		return nil
	}
	if err := s.store.Sync(seq); err != nil {
		s.storeBroken.Store(true)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	if lim := s.cfg.CheckpointWALBytes; lim > 0 && s.ckptKick != nil && s.store.WALBytes() > lim {
		select {
		case s.ckptKick <- struct{}{}:
		default: // a kick is already pending
		}
	}
	return nil
}

// logSynced appends and fsyncs in one step — for Register/Unregister,
// which log before mutating (durable before visible) and so fsync under
// the exclusive lock.
func (s *Service) logSynced(rec store.Record) error {
	seq, err := s.logAppend(rec)
	if err != nil {
		return err
	}
	return s.logSync(seq)
}

// Open builds a durable Service backed by the data directory: segments
// and the WAL tail recovered by store.Open are replayed through the
// normal mutation paths, resident indexes recorded at the last checkpoint
// are rebuilt eagerly (warm restart), and every subsequent acknowledged
// mutation is logged. A missing or empty directory starts fresh; a torn
// WAL tail is truncated to the last complete record.
func Open(cfg Config, dir string) (*Service, error) {
	return open(cfg, dir, nil)
}

// open is Open with an injectable clock (nil = time.Now): recovery stamps
// windowed relations' arrival times, and in-package tests drive those
// stamps deterministically.
func open(cfg Config, dir string, clock func() time.Time) (*Service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := newService(cfg)
	if clock != nil {
		s.now = clock
	}
	s.store = st
	// Replay is single-threaded — no other goroutine can observe the
	// service until Open returns — so the plain flag suffices, and the
	// logging hooks skip rather than re-log recovery's own input.
	s.replaying = true
	for _, sd := range st.Recovered() {
		if err := s.registerRecovered(sd); err != nil {
			st.Close()
			return nil, fmt.Errorf("service: recovering segment %q: %w", sd.Name, err)
		}
	}
	for i, rec := range st.WALTail() {
		if err := s.replayRecord(rec); err != nil {
			st.Close()
			return nil, fmt.Errorf("service: replaying WAL record %d (%s %q): %w",
				i, recordTypeName(rec.Type), rec.Relation, err)
		}
	}
	s.replaying = false
	s.rebuildResidents(st.ResidentCombos())
	s.startBackground()
	return s, nil
}

// registerRecovered installs one checkpoint segment at its recorded
// version, bypassing RegisterWindow (which would restart the version at
// 1). Window arrival stamps are not persisted: recovered rows arrive "at
// recovery", so a windowed relation's rows age out one window after the
// restart rather than instantly — the conservative reading of a clock
// that did not run while the server was down.
func (s *Service) registerRecovered(sd store.SegmentData) error {
	if _, ok := s.rels[sd.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateRelation, sd.Name)
	}
	rr := &regRelation{rel: sd.Rel, version: sd.Version, window: sd.Window}
	if sd.Window > 0 {
		now := s.now().UnixNano()
		rr.arrivals = make([]int64, sd.Rel.Len())
		for i := range rr.arrivals {
			rr.arrivals[i] = now
		}
	}
	s.rels[sd.Name] = rr
	return nil
}

// replayRecord applies one WAL record through the normal mutation path it
// was logged from. Expiry deletes replay verbatim — recovery never
// re-derives them from a clock that no longer matches arrival times.
func (s *Service) replayRecord(rec store.Record) error {
	switch rec.Type {
	case store.RecRegister:
		_, err := s.RegisterWindow(rec.Relation, rec.Rel, rec.Window)
		return err
	case store.RecInsert:
		_, err := s.InsertBatch(rec.Relation, rec.Tuples)
		return err
	case store.RecDelete:
		_, err := s.commit(rec.Relation, &deleteMutation{ids: rec.IDs, expiry: rec.Expiry})
		return err
	case store.RecUnregister:
		return s.Unregister(rec.Relation)
	default:
		return fmt.Errorf("%w: unknown record type %d", store.ErrCorrupt, rec.Type)
	}
}

func recordTypeName(t store.RecordType) string {
	switch t {
	case store.RecRegister:
		return "register"
	case store.RecInsert:
		return "insert"
	case store.RecDelete:
		return "delete"
	case store.RecUnregister:
		return "unregister"
	}
	return fmt.Sprintf("type%d", t)
}

// rebuildResidents eagerly reconstructs the resident join indexes the
// manifest recorded at the last checkpoint, so the restarted server
// answers its pre-crash working set without a cold O(n log n) build on
// the first query. Best effort: a combo whose relations are gone (an
// unregister in the WAL tail) or whose condition no longer parses is
// skipped — the query path rebuilds on demand as always.
func (s *Service) rebuildResidents(combos []store.ResidentCombo) {
	for _, c := range combos {
		cond, err := join.ParseCondition(c.Cond)
		if err != nil {
			continue
		}
		rr1, ok1 := s.rels[c.R1]
		rr2, ok2 := s.rels[c.R2]
		if !ok1 || !ok2 {
			continue
		}
		// A resident's build reads neither k nor the aggregator
		// (core.NewResident; its per-k state fills on use), so any
		// well-formed query over the pair serves as the builder's input.
		q := core.Query{R1: rr1.rel, R2: rr2.rel, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
		s.residents.get(residentKey{r1: c.R1, r2: c.R2, cond: cond}, q)
	}
}

// Checkpoint folds the WAL into a fresh segment generation now,
// regardless of the configured interval: one columnar segment per
// relation at its current version, the resident combos worth rebuilding
// warm, and a truncated WAL. Mutations are held quiescent for the
// duration (ingestMu, which every writer takes, plus a read lock on mu);
// queries keep running. A no-op on an in-memory service.
func (s *Service) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkpointLocked()
}

// checkpointLocked snapshots the registry and hands it to the store. The
// caller holds ingestMu and at least a read lock on mu: every mutation
// path is excluded, so the WAL is quiescent and full truncation is safe,
// and the columns handed over as live views cannot move underneath the
// segment writer.
func (s *Service) checkpointLocked() error {
	rels := make([]store.CheckpointRelation, 0, len(s.rels))
	for name, rr := range s.rels {
		rels = append(rels, store.CheckpointRelation{
			Name:    name,
			Version: rr.version,
			Window:  rr.window,
			Cols:    rr.rel.SnapshotColumns(),
		})
	}
	var combos []store.ResidentCombo
	for _, k := range s.residents.keys() {
		combos = append(combos, store.ResidentCombo{R1: k.r1, R2: k.r2, Cond: k.cond.Token()})
	}
	return s.store.Checkpoint(rels, combos)
}

// checkpointLoop is the background checkpointer goroutine: one Checkpoint
// per tick, plus any size-trigger kicks from logSync, until Close.
func (s *Service) checkpointLoop(interval time.Duration) {
	defer close(s.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
		case <-s.ckptKick:
		}
		// Best effort on the ticker: a failed checkpoint leaves the old
		// generation valid and the WAL growing; the next tick retries.
		s.Checkpoint()
	}
}
