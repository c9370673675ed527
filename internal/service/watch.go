package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/join"
)

// Watchable answers: Service.Watch turns a query into a subscription. The
// subscriber attaches to the standing answer (cache.go) the query path
// stored — the same structure cache hits read and commits maintain — and
// from then on every commit touching the watched relations publishes the
// answer's delta, the Added/Removed pairs, instead of the subscriber
// re-polling and re-diffing snapshots. Subscribers pin their answer
// against LRU eviction; nothing else distinguishes a watched answer from
// a cached one.
//
// Concurrency model: a commit (commit.go), inside its one exclusive
// section, advances each affected answer's maintainer, diffs the served
// snapshot and publishes one coalesced delta per batch to every
// subscriber. Publishing only appends to a per-subscriber buffer and never
// blocks, so a slow consumer cannot stall ingest (its deltas queue in
// memory until it drains them). A per-subscription goroutine forwards
// queued events to the Events channel, honoring the subscriber's context.
//
// Watch is the one subscription implementation: the sharded gateway's
// cluster-wide watches are attached to, and published through, an
// AnswerStore of its own, so they are this type too.

// WatchEvent is one change to a watched answer. The first event of every
// subscription (Seq 0) is the full current answer as Added; each later
// event is the delta one insert caused — possibly empty, since an insert
// can leave the skyline unchanged while still advancing Versions. Added
// and Removed slices are shared between subscribers of the same query and
// must be treated as read-only.
type WatchEvent struct {
	// Seq numbers this subscription's events from 0 (the snapshot).
	Seq uint64 `json:"seq"`
	// Added lists pairs that entered the answer; Removed pairs that were
	// displaced. Both sorted by (Left, Right).
	Added   []join.Pair `json:"added"`
	Removed []join.Pair `json:"removed"`
	// Versions are the (R1, R2) registry versions the answer moved to.
	Versions [2]uint64 `json:"versions"`
}

// Watch is one live subscription to a query's answer. Receive from
// Events until it closes, then consult Err; Close releases the
// subscription.
type Watch struct {
	// detach unhooks the subscription from the standing answer that
	// publishes to it.
	detach func(*Watch)

	events chan WatchEvent
	wake   chan struct{} // cap 1: "pending is non-empty"
	done   chan struct{} // closed by Close/terminate
	once   sync.Once

	mu      sync.Mutex
	pending []WatchEvent
	seq     uint64
	err     error
}

// newWatch starts a subscription whose lifetime ctx governs: when it is
// cancelled the Events channel closes and Err reports the cause. detach
// unhooks the subscription from its publisher — on every Close and on
// cancellation, from another goroutine, possibly before newWatch returns
// (an already-cancelled ctx). Publishers therefore call newWatch holding
// the lock detach takes, and register the subscription before releasing
// it.
func newWatch(ctx context.Context, detach func(*Watch)) *Watch {
	w := &Watch{
		detach: detach,
		events: make(chan WatchEvent, 16),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go w.pump(ctx)
	return w
}

// Watch subscribes to a query's answer. The first event is the current
// answer (computed through the normal admitted query path, so cache hits
// apply); every later event is the delta caused by one commit touching
// either relation. Watch requires a query the incremental maintainer can
// take — a strictly monotonic aggregator — and rejects others with
// ErrBadRequest. The context governs the subscription's lifetime: when it
// is cancelled the Events channel closes and Err reports the cause.
// NoCache is ignored: a subscription is to the standing answer.
func (s *Service) Watch(ctx context.Context, req QueryRequest) (*Watch, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	p, err := ParseWatchRequest(req)
	if err != nil {
		return nil, err
	}
	req.NoCache = false

	// Establishing a watch must not miss or double-count a commit: the
	// snapshot event and the subscription have to be atomic against the
	// commit path. Queries execute under the read lock, so let Query
	// compute and store the answer, then attach under the write lock if it
	// still stands at the registry's versions; retry on the (rare) race
	// with a commit or an eviction in between.
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if w, err := s.tryAttach(ctx, req, p); err != nil || w != nil {
			return w, err
		}
		if _, err := s.Query(ctx, req); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: relations kept changing while establishing the watch", ErrOverloaded)
}

// ParseWatchRequest is ParseRequest for a subscription, which fails the
// unmaintainable shape up front, not on the first insert: only strict
// aggregators support incremental absorption.
func ParseWatchRequest(req QueryRequest) (Parsed, error) {
	p, err := ParseRequest(req)
	if err == nil && !p.Agg.Strict {
		err = fmt.Errorf("%w: watch requires a strictly monotonic aggregator (got %q)", ErrBadRequest, p.Agg.Name)
	}
	return p, err
}

// tryAttach subscribes to the standing answer under the write lock; nil
// without error means there is no current answer to attach to yet.
func (s *Service) tryAttach(ctx context.Context, req QueryRequest, p Parsed) (*Watch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	_, key, versions, err := s.resolveLocked(req, p)
	if err != nil {
		return nil, err
	}
	a := s.cache.Standing(key, versions)
	if a == nil {
		return nil, nil
	}
	return s.cache.Attach(ctx, a), nil
}

// DiffPairs computes the delta between two (Left, Right)-sorted answers —
// the exact diff watch events carry; the gateway reuses it to emit
// cluster-wide deltas from re-merged global answers. Pair identity is the
// index pair. Under inserts a pair's joined
// attributes are fixed by the relations, so only membership changes —
// but a delete renumbers the surviving rows, and a survivor can inherit
// the exact index pair of a simultaneously evicted member. Identity alone
// would call that "unchanged" and leave subscribers holding the dead
// pair's attributes, so an identity match with different attributes is
// emitted as a remove-then-add of the same key.
func DiffPairs(old, cur []join.Pair) (added, removed []join.Pair) {
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		a, b := old[i], cur[j]
		switch {
		case a.Left == b.Left && a.Right == b.Right:
			if !equalAttrs(a.Attrs, b.Attrs) {
				removed = append(removed, a)
				added = append(added, b)
			}
			i++
			j++
		case a.Left < b.Left || (a.Left == b.Left && a.Right < b.Right):
			removed = append(removed, a)
			i++
		default:
			added = append(added, b)
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}

// equalAttrs reports byte-identical combined attribute vectors.
func equalAttrs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Events is the subscription's delivery channel. It closes when the watch
// ends — Close, context cancellation, or its publisher shutting down; Err
// reports which.
func (w *Watch) Events() <-chan WatchEvent { return w.events }

// Err reports why the Events channel closed: nil after a clean Close, the
// context's error after cancellation, otherwise whatever the publisher
// terminated it with (ErrClosed after service shutdown). Only meaningful
// once Events is closed.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close ends the subscription and detaches it from its publisher. Close is
// idempotent and safe to call concurrently with event delivery.
func (w *Watch) Close() error {
	w.detach(w)
	w.terminate(nil)
	return nil
}

// terminate ends the subscription with err as its Err, without detaching
// — for publishers that already unhooked it under their own lock.
func (w *Watch) terminate(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.once.Do(func() { close(w.done) })
}

// publish stamps the event with the subscription's next sequence number,
// appends it to the pending buffer and nudges the pump. It never blocks:
// publishers call it holding their own locks.
func (w *Watch) publish(ev WatchEvent) {
	w.mu.Lock()
	ev.Seq = w.seq
	w.seq++
	w.pending = append(w.pending, ev)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pump forwards pending events to the subscriber, one goroutine per
// subscription. It exits — closing Events — when the watch is closed,
// terminated, or its context is cancelled.
func (w *Watch) pump(ctx context.Context) {
	defer close(w.events)
	for {
		select {
		case <-w.done:
			return
		case <-ctx.Done():
			w.detach(w)
			w.terminate(ctx.Err())
			return
		case <-w.wake:
		}
		for {
			w.mu.Lock()
			if len(w.pending) == 0 {
				w.mu.Unlock()
				break
			}
			ev := w.pending[0]
			w.pending = w.pending[1:]
			w.mu.Unlock()
			select {
			case w.events <- ev:
			case <-w.done:
				return
			case <-ctx.Done():
				w.detach(w)
				w.terminate(ctx.Err())
				return
			}
		}
	}
}
