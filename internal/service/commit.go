package service

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/store"
)

// The commit pipeline: every mutation of a registered relation — an
// insert batch, a delete batch, the sweeper's window expiry, a replayed
// WAL record — is one call to commit, which owns admission, the one
// exclusive section, the WAL ordering and the no-ack-unless-durable rule.
// A mutation supplies only what differs between them. DESIGN.md §7 draws
// the pipeline.

// mutation is what differs between the commits sharing the pipeline.
type mutation interface {
	// apply validates the whole batch against the relation and — only once
	// all of it is known good — applies it to the rows and their arrival
	// stamps and counts it. An error rejects the batch with nothing changed.
	apply(s *Service, name string, rr *regRelation) error
	// record is the WAL record that replays the applied batch.
	record(name string) store.Record
	// resident advances a pre-batch Resident on one side.
	resident(res *core.Resident, side core.Side) error
	// maintain advances one answer's maintainer on the side(s) the mutated
	// relation occupies (both, for a self-join). The churn it returns is
	// (displaced, admitted) for inserts, (evicted, resurrected) for deletes.
	maintain(m *core.Maintainer, q core.Query, left, right bool) (churnA, churnB int, err error)
}

// sides lists the sides of a pair the mutated relation occupies.
func sides(left, right bool) []core.Side {
	var out []core.Side
	if left {
		out = append(out, core.Left)
	}
	if right {
		out = append(out, core.Right)
	}
	return out
}

// commitResult is what one commit did to the resident state; InsertResult
// and DeleteResult are its two public spellings.
type commitResult struct {
	version                 uint64
	maintained, invalidated int
	churnA, churnB          int
}

// commit runs one mutation of the named relation as a group commit: one
// physical change, one version bump, one resident advance per affected
// (pair, condition), one maintainer advance per standing answer, one
// coalesced WatchEvent per subscriber — all inside one exclusive section,
// so a reader either runs before the commit or waits for it and then hits
// the advanced answer. It is the only place the exclusive section, the WAL
// hooks and the ingest mutex appear.
func (s *Service) commit(name string, mut mutation) (commitResult, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.writable(); err != nil {
		return commitResult{}, err
	}

	s.mu.Lock()
	out, walSeq, err := s.advanceLocked(name, mut)
	s.mu.Unlock()
	// The fsync — the durability point the ack waits on — runs with readers
	// released; ingestMu still holds the next commit, checkpoints and Close
	// behind it.
	if err == nil {
		err = s.logSync(walSeq)
	}
	if err != nil {
		return commitResult{}, err
	}
	return out, nil
}

// advanceLocked is commit's exclusive section: apply the batch, bump the
// version, append the WAL record, then bring every resident and every
// standing answer over the relation to the new version and publish them.
// The caller holds s.mu exclusively. A rejected batch returns before
// anything changed; a failed WAL append is returned after the advance (the
// batch is applied in memory, so resident state must stay coherent) and
// the caller refuses the ack — logAppend already latched storeBroken.
func (s *Service) advanceLocked(name string, mut mutation) (commitResult, uint64, error) {
	rr, ok := s.rels[name]
	if !ok {
		return commitResult{}, 0, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	if err := mut.apply(s, name, rr); err != nil {
		return commitResult{}, 0, err
	}
	rr.version++
	out := commitResult{version: rr.version}
	// The append happens inside the exclusive section so the log order is
	// the commit order. Expiry-driven deletes are logged like any other:
	// replay reproduces them verbatim instead of re-deriving them from a
	// clock that no longer matches the rows' arrival times.
	walSeq, walErr := s.logAppend(mut.record(name))

	s.residents.advance(name, mut.resident)

	// pre is what an answer must stand at to be current immediately before
	// this commit: the registry's versions with the bump undone.
	pre := func(key AnswerKey) [2]uint64 {
		v := s.versionsLocked(key)
		if key.R1 == name {
			v[0]--
		}
		if key.R2 == name {
			v[1]--
		}
		return v
	}
	answers, invalidated := s.cache.promote(name, pre)
	out.invalidated = invalidated
	for _, a := range answers {
		// Every answer over one (pair, condition) shares the standing
		// Resident; get rebuilds one that could not advance. A failed build
		// (unreachable for registry-owned relations) just means the
		// maintainer advances without one.
		res, _ := s.residents.get(residentKeyOf(a.key), a.q)
		a.m.UseResident(res)
		churnA, churnB, err := mut.maintain(a.m, a.q, a.key.R1 == name, a.key.R2 == name)
		var cur []join.Pair
		if err == nil {
			// Refresh the served snapshot once per batch so cache hits stay
			// O(1) instead of paying the maintainer's copy-and-sort.
			cur = a.m.Skyline()
		}
		s.cache.Publish(a, cur, s.versionsLocked(a.key), err)
		if err != nil {
			out.invalidated++
			continue
		}
		out.maintained++
		out.churnA += churnA
		out.churnB += churnB
	}
	return out, walSeq, walErr
}

// versionsLocked reports the registry versions of a key's relations; a
// relation no longer registered reads as 0, which no answer stands at.
// The caller holds s.mu.
func (s *Service) versionsLocked(key AnswerKey) (v [2]uint64) {
	if rr, ok := s.rels[key.R1]; ok {
		v[0] = rr.version
	}
	if rr, ok := s.rels[key.R2]; ok {
		v[1] = rr.version
	}
	return v
}

// Insert appends one tuple to a registered relation and brings the
// resident state with it. It is InsertBatch with a one-tuple batch —
// the per-tuple path IS the batch path, so the two can never diverge.
func (s *Service) Insert(name string, t dataset.Tuple) (*InsertResult, error) {
	return s.InsertBatch(name, []dataset.Tuple{t})
}

// InsertBatch appends a batch of tuples to a registered relation as one
// group commit (see commit). The final skyline is identical to inserting
// the tuples one at a time (insert-monotonicity makes batch absorption
// order-insensitive); only the intermediate versions are skipped.
func (s *Service) InsertBatch(name string, ts []dataset.Tuple) (*InsertResult, error) {
	in := &insertMutation{ts: ts}
	c, err := s.commit(name, in)
	if err != nil {
		return nil, err
	}
	return &InsertResult{
		ID: in.ids[0], Count: len(ts), Version: c.version,
		Maintained: c.maintained, Invalidated: c.invalidated,
		Displaced: c.churnA, Admitted: c.churnB,
	}, nil
}

// insertMutation appends ts; apply records the row ids they were assigned.
type insertMutation struct {
	ts  []dataset.Tuple
	ids []int
}

func (in *insertMutation) apply(s *Service, name string, rr *regRelation) error {
	if len(in.ts) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	first, err := rr.rel.AppendBatch(in.ts)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	in.ids = make([]int, len(in.ts))
	for i := range in.ids {
		in.ids[i] = first + i
	}
	if rr.window > 0 {
		now := s.now().UnixNano()
		for range in.ts {
			rr.arrivals = append(rr.arrivals, now)
		}
	}
	s.inserts.Add(uint64(len(in.ts)))
	s.batches.Add(1)
	return nil
}

func (in *insertMutation) record(name string) store.Record {
	return store.Record{Type: store.RecInsert, Relation: name, Tuples: in.ts}
}

func (in *insertMutation) resident(res *core.Resident, side core.Side) error {
	return res.Absorb(side, in.ids)
}

func (in *insertMutation) maintain(m *core.Maintainer, _ core.Query, left, right bool) (displaced, admitted int, err error) {
	for _, side := range sides(left, right) {
		d, a, err := m.AbsorbBatch(side, in.ids)
		if err != nil {
			return 0, 0, err
		}
		displaced += d
		admitted += a
	}
	return displaced, admitted, nil
}

// Delete removes one tuple from a registered relation and brings the
// resident state with it. It is DeleteBatch with a one-id batch — the
// per-tuple path IS the batch path, so the two can never diverge.
func (s *Service) Delete(name string, id int) (*DeleteResult, error) {
	return s.DeleteBatch(name, []int{id})
}

// DeleteBatch removes a batch of tuples (by current row id) from a
// registered relation as one group commit (see commit); subscribers get
// the genuine Removed deltas plus any resurrection Added deltas. Ids may
// arrive in any order but must be in range and free of duplicates; the
// batch is rejected whole before anything mutates. Deleting every row is
// rejected too — registered relations stay non-empty.
func (s *Service) DeleteBatch(name string, ids []int) (*DeleteResult, error) {
	del := &deleteMutation{ids: ids}
	c, err := s.commit(name, del)
	if err != nil {
		return nil, err
	}
	return &DeleteResult{
		Count: len(ids), Version: c.version,
		Maintained: c.maintained, Invalidated: c.invalidated,
		Evicted: c.churnA, Resurrected: c.churnB,
	}, nil
}

// deleteMutation removes rows ids; apply leaves ids strictly ascending.
// expiry marks sweeper-driven deletes in the counters and the WAL.
type deleteMutation struct {
	ids    []int
	expiry bool
	// rows snapshots the deleted rows for the resurrection filter.
	rows *dataset.Relation
}

func (d *deleteMutation) apply(s *Service, name string, rr *regRelation) error {
	if len(d.ids) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	sorted := append([]int(nil), d.ids...)
	sort.Ints(sorted)
	n := rr.rel.Len()
	for i, id := range sorted {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: delete index %d out of range [0,%d)", ErrBadRequest, id, n)
		}
		if i > 0 && sorted[i-1] == id {
			return fmt.Errorf("%w: duplicate delete index %d", ErrBadRequest, id)
		}
	}
	if len(sorted) >= n {
		return fmt.Errorf("%w: cannot delete all %d rows of %q (registered relations stay non-empty)", ErrBadRequest, n, name)
	}
	// The resurrection filter needs the deleted rows' pairs, and the rows
	// are unrecoverable once the columns compact — snapshot them now (an
	// O(b·d) copy; the pairs are only materialized if a maintainer takes its
	// incremental arm).
	d.rows = core.SnapshotRows(rr.rel, sorted)
	if err := rr.rel.DeleteBatch(sorted); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if rr.window > 0 {
		keep := rr.arrivals[:0]
		next := 0
		for i, at := range rr.arrivals {
			if next < len(sorted) && sorted[next] == i {
				next++
				continue
			}
			keep = append(keep, at)
		}
		rr.arrivals = keep
	}
	d.ids = sorted
	s.deletes.Add(uint64(len(sorted)))
	s.deleteBatches.Add(1)
	if d.expiry {
		s.expired.Add(uint64(len(sorted)))
	}
	return nil
}

func (d *deleteMutation) record(name string) store.Record {
	return store.Record{Type: store.RecDelete, Relation: name, IDs: d.ids, Expiry: d.expiry}
}

// resident compacts the reclaimed Resident in place (O(survivors)).
func (d *deleteMutation) resident(res *core.Resident, side core.Side) error {
	return res.Retract(side, d.ids)
}

// maintain retracts through a RetractSet built for this answer's own
// (sides, condition, aggregator, k): the group-prune thresholds bake in k
// and the pair points bake in the aggregator, so answers cannot share one.
func (d *deleteMutation) maintain(m *core.Maintainer, q core.Query, left, right bool) (evicted, resurrected int, err error) {
	return m.RetractBatch(left, right, d.ids, core.NewRetractSet(q, left, right, d.rows))
}

// expiryMutation is the sweeper's delete: which rows go is decided inside
// the commit's exclusive section, against the arrival stamps as they stand
// there — the relation may have changed since the sweeper looked.
type expiryMutation struct{ deleteMutation }

var errNothingExpired = errors.New("service: no expired rows")

func (e *expiryMutation) apply(s *Service, name string, rr *regRelation) error {
	n := rr.expired(s.now())
	if n == 0 {
		return errNothingExpired
	}
	e.expiry = true
	e.ids = make([]int, n)
	for i := range e.ids {
		e.ids[i] = i
	}
	return e.deleteMutation.apply(s, name, rr)
}

// expired counts the rows a windowed relation has outlived at now. Arrival
// stamps are ascending, so they are a prefix and one binary search finds
// the cut. The newest row is always retained (registered relations stay
// non-empty).
func (rr *regRelation) expired(now time.Time) int {
	if rr.window <= 0 {
		return 0
	}
	deadline := now.UnixNano() - int64(rr.window)
	n := sort.Search(len(rr.arrivals), func(i int) bool { return rr.arrivals[i] > deadline })
	return min(n, rr.rel.Len()-1)
}

// Sweep ages expired rows out of every windowed relation immediately,
// regardless of the sweep interval, and reports how many rows it removed.
// The background sweeper calls it on its ticker; tests that disabled the
// sweeper (negative Config.SweepInterval) call it to drive expiry
// deterministically.
func (s *Service) Sweep() int {
	// Only relations with something to expire pay for a commit (and its
	// exclusive sections); the commit re-derives the cut under its lock.
	now := s.now()
	var due []string
	s.mu.RLock()
	for name, rr := range s.rels {
		if rr.expired(now) > 0 {
			due = append(due, name)
		}
	}
	s.mu.RUnlock()

	total := 0
	for _, name := range due {
		// Errors (closed, durability latched, relation gone or drained
		// since the scan) leave nothing to count.
		exp := &expiryMutation{}
		if _, err := s.commit(name, exp); err == nil {
			total += len(exp.ids)
		}
	}
	return total
}

// sweepLoop is the background sweeper goroutine: one Sweep per tick until
// Close.
func (s *Service) sweepLoop(interval time.Duration) {
	defer close(s.sweepDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}
