package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/join"
)

// AnswerKey is the normalized, version-free identity of an answer: the
// two registered relations, the canonical join and aggregator tokens, and
// k. Algorithm and parallel degree are deliberately absent — every
// strategy computes the same skyline, so a result computed by one serves
// requests asking for another. Versions are not part of the identity: a
// standing answer follows its query across versions.
type AnswerKey struct {
	R1, R2 string
	Cond   join.Condition
	Agg    string
	K      int
}

// Names reports whether the answer is over the named relation.
func (k AnswerKey) Names(rel string) bool { return k.R1 == rel || k.R2 == rel }

// errSuperseded ends subscriptions to an answer found standing at versions
// the registry has moved past — a state the commit pipeline never leaves
// behind, checked so that a violation fails loudly instead of serving a
// stale skyline.
var errSuperseded = errors.New("service: standing answer superseded")

// Answer is one standing answer — the single structure behind a cache
// hit, a maintained hit and a watch delta. It is valid at exactly
// versions; whoever commits a mutation over either relation advances it
// in place and publishes the result: the service (commit.go) through the
// answer's maintainer, which the first such commit creates from the
// served skyline for free, the sharded gateway by re-running its two
// rounds. snap is always the served snapshot, so lookups never pay the
// maintainer's copy-and-sort; Publish replaces it rather than editing it.
//
// An answer is in the LRU list unless subscribers pin it (Attach); pinned
// answers sit outside the capacity budget.
//
// Every field is guarded by the store mutex. Answers are removed — and
// their maintainers closed — only under the committer's lock (the
// service's mu, the gateway's), so the maintainer's internals belong to
// the commit holding that lock exclusively.
type Answer struct {
	key      AnswerKey
	q        core.Query // normalized query; relation pointers are stable
	versions [2]uint64
	snap     *Snapshot
	algo     string // strategy that originally computed the answer
	m        *core.Maintainer
	subs     map[*Watch]struct{}
	elem     *list.Element // nil while pinned
}

// Key is the answer's identity; it never changes.
func (a *Answer) Key() AnswerKey { return a.key }

// Snapshot is one published state of a standing answer: its skyline and,
// once a reader has asked for it, the skyline's wire encoding. Nothing in
// it changes after the encoding is filled, and a commit that moves the
// answer publishes a new snapshot instead of editing this one — so the
// encoding is dropped together with the skyline it encodes, and a fill
// racing with that commit can only land in the snapshot it read.
type Snapshot struct {
	// Skyline is sorted by (Left, Right) and read-only.
	Skyline []join.Pair
	once    sync.Once
	encoded []byte
}

// Encoded returns the snapshot's encoding: encode(Skyline) on the first
// call, the same bytes on every later one; concurrent first callers wait
// for the one fill. The bytes are read-only.
func (s *Snapshot) Encoded(encode func([]join.Pair) []byte) []byte {
	s.once.Do(func() { s.encoded = encode(s.Skyline) })
	return s.encoded
}

// AnswerStore holds the standing answers: a map by key plus a bounded LRU
// over the unpinned ones. Its mutex covers only bookkeeping — never query
// execution or maintainer work — so hits stay O(1) and uncontended. The
// service holds one over its registry and the sharded gateway one over its
// placement; each serializes its own commits and calls the store under the
// lock that orders them against its queries.
type AnswerStore struct {
	mu        sync.Mutex
	cap       int
	entries   map[AnswerKey]*Answer
	lru       *list.List // front = most recently used
	evictions uint64
}

// NewAnswerStore builds an empty store whose LRU holds capacity answers.
func NewAnswerStore(capacity int) *AnswerStore {
	return &AnswerStore{
		cap:     capacity,
		entries: make(map[AnswerKey]*Answer, capacity),
		lru:     list.New(),
	}
}

// Lookup returns the answer for key if it is valid at versions: its
// snapshot, the algorithm that computed it, and whether it is
// live-maintained. It is the one entry point readers call without the
// committer's lock: snapshot and versions move together under the store
// mutex (Publish), so a reader holding pre-commit versions is served the
// pre-commit snapshot.
func (c *AnswerStore) Lookup(key AnswerKey, versions [2]uint64) (snap *Snapshot, algo string, maintained, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || a.versions != versions {
		return nil, "", false, false
	}
	if a.elem != nil {
		c.lru.MoveToFront(a.elem)
	}
	return a.snap, a.algo, a.m != nil, true
}

// Store records a freshly computed answer, evicting least-recently-used
// answers past capacity. An answer already standing at these versions is
// the same skyline and stays (maintainer and subscribers included).
func (c *AnswerStore) Store(key AnswerKey, versions [2]uint64, q core.Query, sky []join.Pair, algo string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.entries[key]; ok {
		if a.versions == versions {
			return
		}
		c.remove(a, errSuperseded)
	}
	a := &Answer{key: key, q: q, versions: versions, snap: &Snapshot{Skyline: sky}, algo: algo}
	c.entries[key] = a
	a.elem = c.lru.PushFront(a)
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back().Value.(*Answer), nil)
		c.evictions++
	}
}

func (c *AnswerStore) pin(a *Answer) {
	if a.elem != nil {
		c.lru.Remove(a.elem)
		a.elem = nil
	}
}

// remove deletes an answer for good: its maintainer closes and its
// subscribers, if any, end with cause.
func (c *AnswerStore) remove(a *Answer, cause error) {
	delete(c.entries, a.key)
	c.pin(a)
	if a.m != nil {
		a.m.Close()
		a.m = nil
	}
	for w := range a.subs {
		w.terminate(cause)
	}
	a.subs = nil
}

// Purge removes every answer whose key matches; Unregister and Close use
// it, under the committer's lock.
func (c *AnswerStore) Purge(match func(AnswerKey) bool, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, a := range c.entries {
		if match(key) {
			c.remove(a, cause)
		}
	}
}

// promote returns the answers over the relation, each with a maintainer, for
// a service commit to advance and hand to Publish. pre reports the versions
// an answer must stand at to be current immediately before the mutation; a
// stale answer, or one the maintainer cannot take (a non-strict
// aggregator), is removed and counted as invalidated. Promotion is free:
// the served skyline seeds the maintainer, no recomputation.
func (c *AnswerStore) promote(name string, pre func(AnswerKey) [2]uint64) (live []*Answer, invalidated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, a := range c.entries {
		if !key.Names(name) {
			continue
		}
		var err error
		if a.versions != pre(key) {
			err = errSuperseded
		} else if a.m == nil {
			a.m, err = core.NewMaintainerFrom(a.q, a.snap.Skyline)
		}
		if err != nil {
			c.remove(a, err)
			invalidated++
			continue
		}
		live = append(live, a)
	}
	return live, invalidated
}

// Watched returns the answers over the relation that have subscribers —
// the ones somebody is waiting to hear about — for a committer that
// carries answers across a mutation by recomputing them (the gateway
// re-runs its two rounds) and hands each to Publish. The rest stand at
// versions the mutation has moved past and are superseded by the next
// Store.
func (c *AnswerStore) Watched(name string) (live []*Answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, a := range c.entries {
		if key.Names(name) && len(a.subs) > 0 {
			live = append(live, a)
		}
	}
	return live
}

// Publish moves one answer across a commit: serve a new snapshot of the
// post-commit skyline at the post-commit versions — the old snapshot, and
// any encoding filled on it, stays with the readers already holding it —
// and send subscribers the one coalesced delta. A non-nil err says the
// answer could not follow the commit (the maintainer failed — unreachable
// for registry-owned relations — or a shard went down under the gateway's
// recompute); it is removed and every subscriber ends with the error
// rather than silently drifting.
func (c *AnswerStore) Publish(a *Answer, cur []join.Pair, versions [2]uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.remove(a, err)
		return
	}
	if len(a.subs) > 0 {
		added, removed := DiffPairs(a.snap.Skyline, cur)
		for w := range a.subs {
			w.publish(WatchEvent{Added: added, Removed: removed, Versions: versions})
		}
	}
	a.snap, a.versions = &Snapshot{Skyline: cur}, versions
}

// Standing returns the answer for key a new subscriber can attach to: the
// one valid at the registry's current versions, nil when there is none.
// The caller holds the exclusive lock its commits take until it has
// attached, which is what makes snapshot and subscription atomic against
// them.
func (c *AnswerStore) Standing(key AnswerKey, versions [2]uint64) *Answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || a.versions != versions {
		return nil
	}
	return a
}

// Attach starts a subscription on a standing answer and queues its
// snapshot event. The watch is created under the cache mutex — the lock
// its detach takes — so even an already-cancelled ctx cannot detach it
// before it is subscribed.
func (c *AnswerStore) Attach(ctx context.Context, a *Answer) *Watch {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := newWatch(ctx, func(w *Watch) { c.detach(a, w) })
	if a.subs == nil {
		a.subs = make(map[*Watch]struct{})
	}
	a.subs[w] = struct{}{}
	c.pin(a)
	w.publish(WatchEvent{Added: a.snap.Skyline, Versions: a.versions})
	return w
}

// detach unsubscribes w; the last subscriber leaving returns the answer
// to the front of the LRU. It runs on the watch's goroutine, without the
// committer's lock, so it must not trim: evicting here could close a
// maintainer a commit is advancing. The list may sit over capacity until
// the next Store trims it.
func (c *AnswerStore) detach(a *Answer, w *Watch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[a.key] != a {
		return // already removed (unregister, service closed)
	}
	delete(a.subs, w)
	if len(a.subs) == 0 && a.elem == nil {
		a.elem = c.lru.PushFront(a)
	}
}

// Stats counts answers, the maintained ones among them, and subscribers.
func (c *AnswerStore) Stats() (entries, maintained, watches int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.entries {
		if a.m != nil {
			maintained++
		}
		watches += len(a.subs)
	}
	return len(c.entries), maintained, watches, c.evictions
}
