package service

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
)

// Registry errors.
var (
	ErrUnknownRelation   = errors.New("service: unknown relation")
	ErrDuplicateRelation = errors.New("service: relation already registered")
)

// regRelation is one resident dataset: loaded once, mutated only through
// the service's insert path, with a version that moves on every mutation.
// Versions are what keep the answer cache coherent — every cache key and
// every response is stamped with the versions it was computed at.
type regRelation struct {
	rel     *dataset.Relation
	version uint64
	// window, when positive, makes the relation a sliding window: every
	// row's arrival instant is recorded in arrivals and the service's
	// sweeper ages out rows older than window through the same delete path
	// an explicit DeleteBatch takes.
	window time.Duration
	// arrivals holds one unix-nano arrival stamp per row, in row order.
	// Inserts only append and the clock is monotone within one service, so
	// the slice stays ascending — expired rows are always a prefix, and the
	// sweeper finds the cut with one binary search. Nil unless window > 0.
	arrivals []int64
}

// RelationInfo describes one registered relation for stats and listings.
type RelationInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Tuples  int    `json:"tuples"`
	Local   int    `json:"local"`
	Agg     int    `json:"agg"`
	// WindowMS is the sliding-window length in milliseconds; 0 means the
	// relation is unwindowed (rows live until explicitly deleted).
	WindowMS int64 `json:"window_ms,omitempty"`
}

// residentKey identifies one shared core.Resident: a relation pair at
// exact versions under one join condition. A version bump orphans the old
// key, so stale residents can never serve a query.
type residentKey struct {
	r1, r2 string
	v1, v2 uint64
	cond   join.Condition
}

func residentKeyOf(key AnswerKey, versions [2]uint64) residentKey {
	return residentKey{r1: key.R1, r2: key.R2, v1: versions[0], v2: versions[1], cond: key.Cond}
}

// maxResidents bounds the resident-index cache. Residents are cheap to
// rebuild (O(n log n)) relative to queries, so the bound just prevents
// unbounded growth under adversarial (pair, condition) churn.
const maxResidents = 64

// residentSlot is one build-once cell: the sync.Once dedups concurrent
// first queries for the same key without holding the cache-wide mutex
// across the O(n log n) build, so unrelated pairs never wait on each
// other's construction.
type residentSlot struct {
	once sync.Once
	res  *core.Resident
	err  error
}

// residentCache shares prebuilt core.Resident structures across queries.
type residentCache struct {
	mu        sync.Mutex
	residents map[residentKey]*residentSlot
}

func newResidentCache() *residentCache {
	return &residentCache{residents: make(map[residentKey]*residentSlot)}
}

// get returns the resident for the key, building it from q on first use.
func (rc *residentCache) get(key residentKey, q core.Query) (*core.Resident, error) {
	rc.mu.Lock()
	slot, ok := rc.residents[key]
	if !ok {
		if len(rc.residents) >= maxResidents {
			// Arbitrary eviction: map iteration order is as good as any
			// when the cache is this oversized relative to realistic pair
			// counts.
			for k := range rc.residents {
				delete(rc.residents, k)
				break
			}
		}
		slot = &residentSlot{}
		rc.residents[key] = slot
	}
	rc.mu.Unlock()
	slot.once.Do(func() { slot.res, slot.err = core.NewResident(q) })
	return slot.res, slot.err
}

// put seeds the cache with an externally built resident (the insert path
// builds one per affected relation pair for maintainer absorbs, and the
// same snapshot warm-starts the next query at the new versions).
func (rc *residentCache) put(key residentKey, res *core.Resident) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.residents[key]; ok {
		return
	}
	if len(rc.residents) >= maxResidents {
		for k := range rc.residents {
			delete(rc.residents, k)
			break
		}
	}
	slot := &residentSlot{res: res}
	slot.once.Do(func() {}) // mark built so get never re-runs the builder
	rc.residents[key] = slot
}

// take removes and returns the resident for the key, or nil when the
// cache holds none (or the slot errored). The ingest path calls it under
// the service's exclusive lock to reclaim the pre-batch snapshot for
// in-place extension; that lock has drained every query that could be
// mid-build inside the slot's once, so reading slot.res without waiting
// on it is safe.
func (rc *residentCache) take(key residentKey) *core.Resident {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	slot, ok := rc.residents[key]
	if !ok {
		return nil
	}
	delete(rc.residents, key)
	return slot.res
}

// dropRelation removes every resident referencing the named relation;
// called after an insert bumps its version.
func (rc *residentCache) dropRelation(name string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for k := range rc.residents {
		if k.r1 == name || k.r2 == name {
			delete(rc.residents, k)
		}
	}
}

// keys lists the live combo keys; the checkpointer records them (version
// free) so recovery knows which resident indexes to rebuild eagerly.
func (rc *residentCache) keys() []residentKey {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]residentKey, 0, len(rc.residents))
	for k := range rc.residents {
		out = append(out, k)
	}
	return out
}

func (rc *residentCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.residents)
}

// clear drops every resident; used by Service.Close.
func (rc *residentCache) clear() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.residents = make(map[residentKey]*residentSlot)
}

// relationInfos renders the registry sorted by name.
func relationInfos(rels map[string]*regRelation) []RelationInfo {
	out := make([]RelationInfo, 0, len(rels))
	for name, rr := range rels {
		out = append(out, RelationInfo{
			Name:     name,
			Version:  rr.version,
			Tuples:   rr.rel.Len(),
			Local:    rr.rel.Local,
			Agg:      rr.rel.Agg,
			WindowMS: rr.window.Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
