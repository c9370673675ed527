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

// residentKey identifies one shared core.Resident: a relation pair under
// one join condition. Like a standing answer it follows the pair across
// versions — every commit advances it in place (residentCache.advance) —
// and core.Resident's own length check rejects one that fell behind.
type residentKey struct {
	r1, r2 string
	cond   join.Condition
}

func residentKeyOf(key AnswerKey) residentKey {
	return residentKey{r1: key.R1, r2: key.R2, cond: key.Cond}
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

// advance carries every resident over the named relation across one
// mutation in place: step is applied once per side the relation occupies
// (both, for a self-join). A resident that cannot follow is dropped, and
// the next get rebuilds it. The caller holds the service's exclusive lock,
// which has drained every query that could be mid-build inside a slot's
// once, so reading slot.res without waiting on it is safe.
func (rc *residentCache) advance(name string, step func(*core.Resident, core.Side) error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for k, slot := range rc.residents {
		for _, side := range sides(k.r1 == name, k.r2 == name) {
			if slot.res == nil || step(slot.res, side) != nil {
				delete(rc.residents, k)
				break
			}
		}
	}
}

// dropRelation removes every resident referencing the named relation;
// Unregister calls it.
func (rc *residentCache) dropRelation(name string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for k := range rc.residents {
		if k.r1 == name || k.r2 == name {
			delete(rc.residents, k)
		}
	}
}

// keys lists the live combo keys; the checkpointer records them so
// recovery knows which resident indexes to rebuild eagerly.
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
