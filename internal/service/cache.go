package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/join"
)

// answerKey is the normalized, version-free identity of an answer: the
// two registered relations, the canonical join and aggregator tokens, and
// k. Algorithm and parallel degree are deliberately absent — every
// strategy computes the same skyline, so a result computed by one serves
// requests asking for another. Versions are not part of the identity: a
// standing answer follows its query across versions.
type answerKey struct {
	r1, r2 string
	cond   join.Condition
	agg    string
	k      int
}

func (k answerKey) names(rel string) bool { return k.r1 == rel || k.r2 == rel }

// errSuperseded ends subscriptions to an answer found standing at versions
// the registry has moved past — a state the commit pipeline never leaves
// behind, checked so that a violation fails loudly instead of serving a
// stale skyline.
var errSuperseded = errors.New("service: standing answer superseded")

// answer is one standing answer — the single structure behind a cache
// hit, a maintained hit and a watch delta. It is valid at exactly
// versions; a commit over either relation (commit.go) advances it in
// place through its maintainer, which the first such commit creates from
// the served skyline for free. skyline is always the served snapshot, so
// lookups never pay the maintainer's copy-and-sort.
//
// An answer is in the LRU list unless it is pinned: by subscribers
// (Service.Watch), or by a commit mid-flight (absorbing), during which
// the maintainer is in use with no lock held and must not be closed.
// Pinned answers sit outside the capacity budget.
//
// Every field is guarded by the cache mutex; the maintainer's internals
// belong to whichever commit holds the absorbing pin.
type answer struct {
	key       answerKey
	q         core.Query // normalized query; relation pointers are stable
	versions  [2]uint64
	skyline   []join.Pair // sorted by (Left, Right)
	algo      string      // strategy that originally computed the answer
	m         *core.Maintainer
	subs      map[*Watch]struct{}
	absorbing bool
	elem      *list.Element // nil while pinned
}

// answerCache holds the standing answers: a map by key plus a bounded LRU
// over the unpinned ones. Its mutex covers only bookkeeping — never query
// execution or maintainer work — so hits stay O(1) and uncontended.
type answerCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[answerKey]*answer
	lru       *list.List // front = most recently used
	evictions uint64
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{
		cap:     capacity,
		entries: make(map[answerKey]*answer, capacity),
		lru:     list.New(),
	}
}

// lookup returns the answer for key if it is valid at versions: the
// skyline (read-only), the algorithm that computed it, and whether it is
// live-maintained. An answer mid-commit is a miss — its snapshot is one
// version behind until the commit publishes.
func (c *answerCache) lookup(key answerKey, versions [2]uint64) (sky []join.Pair, algo string, maintained, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || a.absorbing || a.versions != versions {
		return nil, "", false, false
	}
	if a.elem != nil {
		c.lru.MoveToFront(a.elem)
	}
	return a.skyline, a.algo, a.m != nil, true
}

// store records a freshly computed answer, evicting least-recently-used
// answers past capacity. An answer already standing at these versions is
// the same skyline and stays (maintainer and subscribers included), and
// one mid-commit is left to its commit, which publishes the maintained
// equivalent of what the caller just computed.
func (c *answerCache) store(key answerKey, versions [2]uint64, q core.Query, sky []join.Pair, algo string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.entries[key]; ok {
		if a.absorbing || a.versions == versions {
			return
		}
		c.remove(a, errSuperseded)
	}
	a := &answer{key: key, q: q, versions: versions, skyline: sky, algo: algo}
	c.entries[key] = a
	c.unpin(a)
}

// unpin enters an answer into the LRU at the front (a no-op if it is
// there already) and trims the list back to capacity.
func (c *answerCache) unpin(a *answer) {
	if a.elem != nil {
		return
	}
	a.elem = c.lru.PushFront(a)
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back().Value.(*answer), nil)
		c.evictions++
	}
}

func (c *answerCache) pin(a *answer) {
	if a.elem != nil {
		c.lru.Remove(a.elem)
		a.elem = nil
	}
}

// remove deletes an answer for good: its maintainer closes and its
// subscribers, if any, end with cause.
func (c *answerCache) remove(a *answer, cause error) {
	delete(c.entries, a.key)
	c.pin(a)
	if a.m != nil {
		a.m.Close()
		a.m = nil
	}
	for w := range a.subs {
		w.Terminate(cause)
	}
	a.subs = nil
}

// purge removes every answer whose key matches; Unregister and Close use
// it, holding the ingest mutex so no commit is mid-flight.
func (c *answerCache) purge(match func(answerKey) bool, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, a := range c.entries {
		if match(key) {
			c.remove(a, cause)
		}
	}
}

// take is the cache's half of a commit's phase 1: every answer over the
// relation is pinned as absorbing and, if the maintainer can carry it
// across the mutation, returned. pre reports the versions an answer must
// stand at to be current immediately before the mutation; a stale answer,
// or one the maintainer cannot take (a non-strict aggregator), is removed
// and counted as invalidated. Promotion is free: the served skyline seeds
// the maintainer, no recomputation.
func (c *answerCache) take(name string, pre func(answerKey) [2]uint64) (live []*answer, invalidated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, a := range c.entries {
		if !key.names(name) {
			continue
		}
		var err error
		if a.versions != pre(key) {
			err = errSuperseded
		} else if a.m == nil {
			a.m, err = core.NewMaintainerFrom(a.q, a.skyline)
		}
		if err != nil {
			c.remove(a, err)
			invalidated++
			continue
		}
		c.pin(a)
		a.absorbing = true
		live = append(live, a)
	}
	return live, invalidated
}

// publish is the cache's half of phase 3 for one taken answer: serve the
// post-commit skyline at the post-commit versions, send subscribers the
// one coalesced delta, and release the commit's pin. A non-nil err says
// the maintainer could not follow the commit (unreachable for
// registry-owned relations); the answer is removed and every subscriber
// ends with the error rather than silently drifting.
func (c *answerCache) publish(a *answer, cur []join.Pair, versions [2]uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.remove(a, err)
		return
	}
	if len(a.subs) > 0 {
		added, removed := DiffPairs(a.skyline, cur)
		for w := range a.subs {
			w.Publish(WatchEvent{Added: added, Removed: removed, Versions: versions})
		}
	}
	a.skyline, a.versions, a.absorbing = cur, versions, false
	if len(a.subs) == 0 {
		c.unpin(a)
	}
}

// standing returns the answer for key a new subscriber can attach to:
// one valid at the registry's current versions, or one mid-commit — whose
// served snapshot is the pre-commit answer and whose delta the commit's
// publish is about to deliver, so the subscriber sees every change
// exactly once. Nil when there is none. The caller holds the service's
// exclusive lock until it has attached, which is what makes snapshot and
// subscription atomic against commits.
func (c *answerCache) standing(key answerKey, versions [2]uint64) *answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || (!a.absorbing && a.versions != versions) {
		return nil
	}
	return a
}

// attach starts a subscription on a standing answer and queues its
// snapshot event. The watch is created under the cache mutex — the lock
// its detach takes — so even an already-cancelled ctx cannot detach it
// before it is subscribed.
func (c *answerCache) attach(ctx context.Context, a *answer) *Watch {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := NewWatch(ctx, func(w *Watch) { c.detach(a, w) })
	if a.subs == nil {
		a.subs = make(map[*Watch]struct{})
	}
	a.subs[w] = struct{}{}
	c.pin(a)
	w.Publish(WatchEvent{Added: a.skyline, Versions: a.versions})
	return w
}

// detach unsubscribes w; the last subscriber leaving returns the answer
// to the LRU — unless a commit is mid-flight on it, whose publish does so
// instead.
func (c *answerCache) detach(a *answer, w *Watch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[a.key] != a {
		return // already removed (unregister, service closed)
	}
	delete(a.subs, w)
	if len(a.subs) == 0 && !a.absorbing {
		c.unpin(a)
	}
}

// stats counts answers, the maintained ones among them, and subscribers.
func (c *answerCache) stats() (entries, maintained, watches int, evictions uint64) {
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
