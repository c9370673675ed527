// Package service implements ksjqd, the long-lived KSJQ query service: a
// relation registry whose datasets are loaded once and kept resident, an
// answer cache keyed by (relation versions, normalized query) whose
// entries are promoted to live incremental maintenance when inserts
// arrive, and an admission scheduler that runs queries through the
// engine's unified Exec path with per-request deadlines and a bounded
// worker pool.
//
// The point of the layer is amortization — the substrate PR 2 built makes
// every query cancellable and uniform, but each invocation still paid to
// rebuild join indexes and recompute answers from scratch. Here the
// expensive structures become resident:
//
//   - relations are registered once and versioned; every mutation goes
//     through the service, so a (name, version) pair pins exact contents;
//   - the engine's per-(pair, condition) structures (core.Resident: the
//     full-R2 join index and probe orders) are built once, shared by every
//     admitted query over that pair, and advanced in place by every commit;
//   - answers stand in the cache under the normalized query (condition,
//     aggregator, k — algorithm is deliberately not part of the key, every
//     strategy computes the same skyline) stamped with the versions they
//     are valid at (cache.go);
//   - an insert does not blow the cache away: the first mutation promotes
//     each affected answer, for free, to a core.Maintainer-backed live one
//     (core.NewMaintainerFrom) and the new tuples are absorbed
//     incrementally, so dashboard-style repeated queries keep hitting
//     warm answers across updates;
//   - the same standing answer points outward through Watch (watch.go):
//     subscribers attach to it and receive the Added/Removed delta of
//     every mutation;
//   - deletes ride the same rails in the other direction: DeleteBatch is
//     a group commit that retracts resident indexes in place, evicts
//     skyline members whose pairs died, and re-verifies only the
//     resurrection candidates the deleted pairs could have suppressed
//     (core.RetractSet) — or recomputes when the batch is large enough
//     that the filter would not pay;
//   - sliding-window relations (RegisterWindow) age rows out through that
//     same delete path on a background sweeper, so expiry is just a
//     delete nobody had to issue.
//
// Concurrency model: queries hold the service's read lock while they
// execute (relations are read-only during evaluation). Every mutation —
// insert, delete, window expiry, WAL replay — is one group commit
// (commit.go) with one exclusive section: it applies the whole batch,
// bumps the version once, appends the WAL record, advances every resident
// and every standing answer over the relation, and fans one coalesced
// delta per batch out to subscribers. A reader that arrives during a
// commit waits for it and then hits the advanced answer — advancing an
// answer costs a fraction of recomputing it, so nobody recomputes beside a
// commit. The fsync the acknowledgement waits on runs after the exclusive
// section, under a dedicated ingest mutex that serializes commits (single
// writer, linear version history) and orders them against checkpoints,
// Unregister and Close. The answer cache has its own mutex for O(1) hit
// bookkeeping; snapshot and versions move together under it, so a hit never
// observes a half-published answer.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/store"
)

// Service errors (beyond the registry's and scheduler's).
var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("service: closed")
	// ErrBadRequest wraps request validation failures (unknown spellings,
	// schema violations, k out of range) so transports can map them to
	// client errors (HTTP 400) rather than server faults.
	ErrBadRequest = errors.New("service: bad request")
	// ErrDurability is returned by every mutation after a WAL write has
	// failed on a durable service: the in-memory state may be ahead of the
	// log, so accepting further mutations would let acknowledged data
	// silently miss recovery. Queries keep working; restart to recover.
	ErrDurability = errors.New("service: durability failure, mutations disabled (restart to recover)")
)

// DefaultRequestTimeout is the per-request deadline applied when neither
// the configuration nor the request sets one. ksjqd's wire-facing clamp
// shares this constant so the operator bound and the service default
// cannot drift.
const DefaultRequestTimeout = 30 * time.Second

// WithTimeout bounds ctx by a request's timeout, the way every query path
// reads one: 0 means def, negative means no deadline. Call cancel as for
// context.WithTimeout.
func WithTimeout(ctx context.Context, timeout, def time.Duration) (context.Context, context.CancelFunc) {
	if timeout == 0 {
		timeout = def
	}
	if timeout < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// Config tunes one Service. The zero value picks sensible defaults.
type Config struct {
	// MaxConcurrent bounds queries executing at once. Default: GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a worker slot; anything beyond
	// is rejected with ErrOverloaded. Default: 64.
	MaxQueue int
	// DefaultTimeout bounds each request (queue wait + execution) when the
	// request itself does not set one. Default: 30s. Negative: no deadline.
	DefaultTimeout time.Duration
	// CacheEntries bounds the answer cache (LRU). Default: 256.
	CacheEntries int
	// SweepInterval is how often the background sweeper ages expired rows
	// out of windowed relations (RegisterWindow). 0 means 1s; negative
	// disables the sweeper entirely — tests drive expiry deterministically
	// through Sweep instead.
	SweepInterval time.Duration
	// CheckpointInterval is how often a durable service (Open) folds the
	// WAL into fresh segment files. 0 means 60s; negative disables the
	// background checkpointer — tests drive it through Checkpoint instead.
	// Ignored by New (no data dir, nothing to checkpoint).
	CheckpointInterval time.Duration
	// CheckpointWALBytes triggers an early checkpoint once the live WAL
	// outgrows this size, bounding recovery's replay work independent of
	// the interval. 0 means 64 MiB; negative disables the size trigger.
	CheckpointWALBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = DefaultRequestTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Minute
	}
	if c.CheckpointWALBytes == 0 {
		c.CheckpointWALBytes = 64 << 20
	}
	return c
}

// QueryRequest is one query against registered relations. Join, Agg and
// Algorithm use the CLI spellings ("eq"/"cross"/"lt"/"le"/"gt"/"ge",
// "sum"/"max"/"min", "auto"/"naive"/"grouping"/"dominator"); empty strings
// mean equality join, sum, and auto respectively. Auto resolves through
// core.ResolveAuto, like every other surface.
type QueryRequest struct {
	R1, R2    string
	K         int
	Join      string
	Agg       string
	Algorithm string
	// Workers > 1 parallelizes candidate verification; the execution
	// degree is clamped to GOMAXPROCS (requests arrive over the wire; an
	// oversized degree must not spawn goroutines beyond the machine).
	// Combined with an explicit "naive" the request is rejected
	// (core.CheckWorkers, the rule every surface reads); it never changes
	// the arm "auto" picks.
	Workers int
	// Timeout bounds this request (queue wait + execution); 0 defers to
	// Config.DefaultTimeout, negative means no deadline.
	Timeout time.Duration
	// NoCache neither reads nor writes the answer cache — for callers that
	// need a recompute, not a warm answer. Its result is not stored, so it
	// leaves nothing for later commits to maintain; an answer already
	// standing, maintained or not, is left as it was.
	NoCache bool
}

// Source says where an answer came from.
type Source string

const (
	// SourceComputed: a full engine run (over the resident index).
	SourceComputed Source = "computed"
	// SourceCached: the answer cache, unchanged since it was computed.
	SourceCached Source = "cached"
	// SourceMaintained: a live entry kept current incrementally by a
	// core.Maintainer across inserts.
	SourceMaintained Source = "maintained"
)

// QueryResponse is one answer. Skyline is shared with the service's cache
// and must be treated as read-only.
type QueryResponse struct {
	Skyline []join.Pair
	// Snapshot is the standing answer's published state a hit was served
	// from (its Skyline is Skyline), where a transport keeps the answer's
	// encoding; nil when this request computed the answer.
	Snapshot *Snapshot
	Source   Source
	// Algorithm is the strategy that computed the answer — for cache and
	// maintained hits, the one that computed it originally.
	Algorithm string
	// Versions are the (R1, R2) registry versions the answer is valid at.
	Versions [2]uint64
	// Locals are R1's and R2's local widths (l1, l2), where the answer's
	// vectors split into the compact form (join.Split).
	Locals [2]int
	// Elapsed is the service-side wall time for this request.
	Elapsed time.Duration
	// Stats carries the engine's per-phase breakdown; nil unless the
	// answer was computed by this request.
	Stats *core.Stats
}

// DeleteResult reports what one delete batch (explicit or expiry-driven)
// did to the resident state.
type DeleteResult struct {
	// Count is the number of tuples removed.
	Count int
	// Version is the relation's version after the delete. A batch moves
	// the version once, not once per tuple.
	Version uint64
	// Maintained counts cache entries updated in place through their
	// maintainer; Invalidated counts entries dropped as stale.
	Maintained, Invalidated int
	// Evicted and Resurrected sum the skyline churn across maintained
	// entries: members removed because their pairs were deleted (or
	// renumber-evicted), and former non-members readmitted because every
	// pair that k-dominated them is gone (see core.Maintainer).
	Evicted, Resurrected int
}

// InsertResult reports what one ingest (a single tuple or a whole batch)
// did to the resident state.
type InsertResult struct {
	// ID is the first inserted tuple's assigned index within its
	// relation; a batch occupies IDs [ID, ID+Count).
	ID int
	// Count is the number of tuples appended.
	Count int
	// Version is the relation's version after the insert. A batch moves
	// the version once, not once per tuple.
	Version uint64
	// Maintained counts cache entries updated in place through their
	// maintainer; Invalidated counts entries dropped as stale.
	Maintained, Invalidated int
	// Displaced and Admitted sum the skyline churn across maintained
	// entries (see core.Maintainer).
	Displaced, Admitted int
}

// Stats is the service-level counter snapshot.
type Stats struct {
	Queries        uint64 `json:"queries"`
	CacheHits      uint64 `json:"cache_hits"`
	MaintainedHits uint64 `json:"maintained_hits"`
	Computed       uint64 `json:"computed"`
	Inserts        uint64 `json:"inserts"`
	Batches        uint64 `json:"batches"`
	Deletes        uint64 `json:"deletes"`
	DeleteBatches  uint64 `json:"delete_batches"`
	Expired        uint64 `json:"expired"`
	Rejected       uint64 `json:"rejected"`
	Evictions      uint64 `json:"evictions"`
	Verifies       uint64 `json:"verifies"`

	CacheEntries      int   `json:"cache_entries"`
	MaintainedEntries int   `json:"maintained_entries"`
	Residents         int   `json:"residents"`
	Watches           int   `json:"watches"`
	Busy              int   `json:"busy"`
	Queued            int64 `json:"queued"`

	// Durability counters (DESIGN.md §14). Durable is false for a purely
	// in-memory service, and the rest stay zero. WALRecords/WALBytes
	// measure the live WAL since the last checkpoint — together they bound
	// how much replay a crash now would cost. LastCheckpointMS is
	// milliseconds since the last completed checkpoint (-1: none yet), so
	// recovery lag is observable from /v1/stats alone.
	Durable          bool   `json:"durable"`
	WALRecords       uint64 `json:"wal_records"`
	WALBytes         int64  `json:"wal_bytes"`
	Segments         int    `json:"segments"`
	Checkpoints      uint64 `json:"checkpoints"`
	LastCheckpointMS int64  `json:"last_checkpoint_ms"`

	Relations []RelationInfo `json:"relations"`
}

// Service is the long-lived query service. Create with New, share freely
// across goroutines, Close when done.
type Service struct {
	cfg       Config
	sched     *scheduler
	cache     *AnswerStore
	residents *residentCache

	// ingestMu serializes every writer — commits end to end (fsync
	// included), Register/Unregister, Checkpoint and Close. A checkpoint
	// holds it with only a read lock on mu, so readers keep running while
	// it writes segments. Lock order: ingestMu before mu.
	ingestMu sync.Mutex

	// mu guards the registry and — via read-locking for the whole of
	// query execution — the relations' contents, the residents and the
	// standing answers' maintainers. A commit holds it exclusively once,
	// for its whole advance (commit.go), and releases it before its fsync.
	mu     sync.RWMutex
	rels   map[string]*regRelation
	closed atomic.Bool

	// now is the clock windowed relations age against. Production uses
	// time.Now; in-package tests substitute a fake to drive expiry
	// deterministically. Set once in New, before any other goroutine can
	// observe the service.
	now func() time.Time
	// sweepStop/sweepDone bracket the background sweeper's lifetime; nil
	// when Config.SweepInterval disabled it.
	sweepStop chan struct{}
	sweepDone chan struct{}

	// store is the durability subsystem (nil for a purely in-memory
	// service built with New). Every acknowledged mutation appends a WAL
	// record before the commit's exclusive section ends and fsyncs before
	// the caller is acknowledged; the checkpointer periodically folds the
	// WAL into columnar segment files (see Open and DESIGN.md §14).
	store *store.Store
	// replaying is true while Open replays recovered state through the
	// normal mutation paths; the logging hooks skip so recovery does not
	// re-log its own input. Set and cleared before any other goroutine can
	// observe the service.
	replaying bool
	// storeBroken latches after a WAL append or sync failure; every
	// subsequent mutation fails with ErrDurability (see durable.go).
	storeBroken atomic.Bool
	// ckptStop/ckptDone/ckptKick run the background checkpointer; nil
	// when the service is not durable or the interval disabled it.
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptKick chan struct{}

	queries, cacheHits, maintainedHits atomic.Uint64
	computed, inserts, batches         atomic.Uint64
	deletes, deleteBatches, expired    atomic.Uint64
	rejected, verifies                 atomic.Uint64
}

// New builds a Service with the given configuration. State lives only in
// memory and dies with the process; Open builds the durable variant.
func New(cfg Config) *Service {
	s := newService(cfg)
	s.startBackground()
	return s
}

// newService builds the service without starting background goroutines,
// so Open can replay recovered state before the sweeper (whose expiry
// deletes must be logged, not replayed) observes it.
func newService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:       cfg,
		sched:     newScheduler(cfg.MaxConcurrent, cfg.MaxQueue),
		cache:     NewAnswerStore(cfg.CacheEntries),
		residents: newResidentCache(),
		rels:      make(map[string]*regRelation),
		now:       time.Now,
	}
}

// startBackground launches the sweeper and (durable services only) the
// checkpointer, honoring the configured intervals.
func (s *Service) startBackground() {
	if s.cfg.SweepInterval >= 0 {
		iv := s.cfg.SweepInterval
		if iv == 0 {
			iv = time.Second
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop(iv)
	}
	if s.store != nil && s.cfg.CheckpointInterval >= 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		s.ckptKick = make(chan struct{}, 1)
		go s.checkpointLoop(s.cfg.CheckpointInterval)
	}
}

// Register adds a relation to the registry at version 1. The service owns
// the relation afterwards: callers must not mutate it except through the
// service's insert and delete paths.
func (s *Service) Register(name string, r *dataset.Relation) (uint64, error) {
	return s.RegisterWindow(name, r, 0)
}

// RegisterWindow registers r as a sliding-window relation: rows older
// than window (counted from their arrival at the service; pre-registered
// rows arrive at registration time) are aged out by the background
// sweeper through the same delete path an explicit DeleteBatch takes, so
// maintained entries and watches see expiry as ordinary deletion. The
// newest row is always retained — registered relations stay non-empty.
// A zero window is exactly Register; a negative one is rejected.
func (s *Service) RegisterWindow(name string, r *dataset.Relation, window time.Duration) (uint64, error) {
	if window < 0 {
		return 0, fmt.Errorf("%w: negative window %v", ErrBadRequest, window)
	}
	if name == "" {
		return 0, fmt.Errorf("%w: empty relation name", ErrBadRequest)
	}
	if r == nil {
		return 0, fmt.Errorf("%w: nil relation", ErrBadRequest)
	}
	if err := r.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// A writer like any commit (lock order: ingestMu before mu).
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.writable(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rels[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateRelation, name)
	}
	// The same relation under two names would break version coherence:
	// an insert through one name mutates the shared tuples but bumps only
	// that name's version, leaving the alias's cache entries "current"
	// over changed data. Self-joins don't need aliases — use one name on
	// both sides of the request.
	for other, rr := range s.rels {
		if rr.rel == r {
			return 0, fmt.Errorf("%w: relation already registered as %q", ErrDuplicateRelation, other)
		}
	}
	// Registration is durable before it is visible: the WAL record (full
	// columnar payload, so a relation registered after the last checkpoint
	// recovers from the log alone) is appended and fsync'd while the
	// exclusive lock is still held. A failed log leaves the registry
	// untouched.
	if err := s.logSynced(store.Record{Type: store.RecRegister, Relation: name, Rel: r, Window: window}); err != nil {
		return 0, err
	}
	rr := &regRelation{rel: r, version: 1, window: window}
	if window > 0 {
		now := s.now().UnixNano()
		rr.arrivals = make([]int64, r.Len())
		for i := range rr.arrivals {
			rr.arrivals[i] = now
		}
	}
	s.rels[name] = rr
	return 1, nil
}

// RegisterCSV loads a relation from CSV (see dataset.ReadCSV) and
// registers it under name.
func (s *Service) RegisterCSV(name string, rd io.Reader, opts dataset.ReadOptions) (uint64, error) {
	if opts.Name == "" {
		opts.Name = name
	}
	r, err := dataset.ReadCSV(rd, opts)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return s.Register(name, r)
}

// Relations lists the registry, sorted by name.
func (s *Service) Relations() []RelationInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return relationInfos(s.rels)
}

// Relation returns the registered relation and its current version. The
// relation is owned by the service: treat it as read-only, and do not
// read it concurrently with Insert (which appends in place) — callers
// that only need metadata should use RelationInfo, which snapshots under
// the service lock.
func (s *Service) Relation(name string) (*dataset.Relation, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rr, ok := s.rels[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	return rr.rel, rr.version, nil
}

// RelationInfo snapshots one relation's metadata (name, version, sizes)
// under the service lock, safe against concurrent inserts.
func (s *Service) RelationInfo(name string) (RelationInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rr, ok := s.rels[name]
	if !ok {
		return RelationInfo{}, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	return RelationInfo{
		Name:     name,
		Version:  rr.version,
		Tuples:   rr.rel.Len(),
		Local:    rr.rel.Local,
		Agg:      rr.rel.Agg,
		WindowMS: rr.window.Milliseconds(),
	}, nil
}

// Parsed is a QueryRequest after spelling resolution.
type Parsed struct {
	Cond join.Condition
	Agg  join.Aggregator
	Alg  core.Algorithm
}

// ParseRequest resolves the request's spellings and rejects a parallel
// degree beside an explicit naive run (core.CheckWorkers). Together with
// CheckRequest it is the whole request check, run by the service and by
// the sharded gateway alike before any cache lookup — so accept/reject
// never depends on cache state or on which of the two answered.
func ParseRequest(req QueryRequest) (Parsed, error) {
	var p Parsed
	var err error
	if p.Cond, err = join.ParseCondition(req.Join); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if p.Agg, err = join.ParseAggregator(req.Agg); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if p.Alg, err = core.ParseAlgorithm(req.Algorithm); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err = core.CheckWorkers(p.Alg, req.Workers); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return p, nil
}

// Key is the identity the request's answer stands under.
func (p Parsed) Key(req QueryRequest) AnswerKey {
	return AnswerKey{R1: req.R1, R2: req.R2, Cond: p.Cond, Agg: p.Agg.Name, K: req.K}
}

// resolveLocked builds the normalized query, its answer key, and the
// registry versions it would be answered at; the caller holds s.mu (read
// or write).
func (s *Service) resolveLocked(req QueryRequest, p Parsed) (core.Query, AnswerKey, [2]uint64, error) {
	rr1, ok := s.rels[req.R1]
	if !ok {
		return core.Query{}, AnswerKey{}, [2]uint64{}, fmt.Errorf("%w: %q", ErrUnknownRelation, req.R1)
	}
	rr2, ok := s.rels[req.R2]
	if !ok {
		return core.Query{}, AnswerKey{}, [2]uint64{}, fmt.Errorf("%w: %q", ErrUnknownRelation, req.R2)
	}
	q := core.Query{
		R1:   rr1.rel,
		R2:   rr2.rel,
		Spec: join.Spec{Cond: p.Cond, Agg: p.Agg},
		K:    req.K,
	}
	return q, p.Key(req), [2]uint64{rr1.version, rr2.version}, nil
}

// resolveAndValidate resolves the request and fail-fasts malformed
// queries under one read lock.
func (s *Service) resolveAndValidate(req QueryRequest, p Parsed) (core.Query, AnswerKey, [2]uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, key, versions, err := s.resolveLocked(req, p)
	if err != nil {
		return q, key, versions, err
	}
	return q, key, versions, CheckRequest(q.R1, q.R2, req.K, p)
}

// CheckRequest is the O(1) structural subset of core's query validation,
// over the two relations' schemas alone (Name, Local, Agg — the gateway
// passes its placement metadata as row-less relations). O(1) on purpose:
// registered relations were content-validated by Register and Append
// preserves the invariants, so per-request checks only need the schema
// geometry (k range, aggregate pairing, aggregator strictness) — a full
// q.Validate would rescan every tuple on every request, warm hits
// included. The computed path still runs the full validation inside
// core.Exec.
func CheckRequest(r1, r2 *dataset.Relation, k int, p Parsed) error {
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: p.Cond, Agg: p.Agg}, K: k}
	if err := join.CheckSchemas(r1, r2); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if k < q.KMin() || k > q.Width() {
		return fmt.Errorf("%w: %v: k=%d, admissible range (%d, %d]", ErrBadRequest, core.ErrBadK, k, q.KMin()-1, q.Width())
	}
	// Of the explicit algorithms only naive accepts a non-strict
	// aggregator; auto runs it naive.
	if !q.Strict() && p.Alg != core.Naive && p.Alg != core.Auto {
		return fmt.Errorf("%w: %v: aggregator %q requires algorithm \"naive\"", ErrBadRequest, core.ErrNonStrictAgg, p.Agg.Name)
	}
	return nil
}

// hitResponse assembles a cache/maintained-hit response and bumps the
// counters.
func (s *Service) hitResponse(q core.Query, snap *Snapshot, algo string, maintained bool, versions [2]uint64, start time.Time) *QueryResponse {
	src := SourceCached
	if maintained {
		src = SourceMaintained
		s.maintainedHits.Add(1)
	} else {
		s.cacheHits.Add(1)
	}
	return &QueryResponse{
		Skyline:   snap.Skyline,
		Snapshot:  snap,
		Source:    src,
		Algorithm: algo,
		Versions:  versions,
		Locals:    [2]int{q.R1.Local, q.R2.Local},
		Elapsed:   time.Since(start),
	}
}

// Query answers one request: answer-cache hit, or an admitted engine run
// over the resident index. It is safe for arbitrary concurrent use.
func (s *Service) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	start := time.Now()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.queries.Add(1)
	p, err := ParseRequest(req)
	if err != nil {
		return nil, err
	}
	// Bound the execution degree after parsing: the requested value
	// decides conflicts, but an over-the-wire degree must never spawn
	// goroutines beyond the machine.
	if max := runtime.GOMAXPROCS(0); req.Workers > max {
		req.Workers = max
	}

	// Resolve and validate first — even a request the cache could serve
	// must be rejected if it is malformed, so accept/reject behavior
	// never depends on cache state. Then the fast path: a warm answer
	// needs no admission and no engine work.
	q, key, versions, err := s.resolveAndValidate(req, p)
	if err != nil {
		return nil, err
	}
	if !req.NoCache {
		if snap, algo, maintained, ok := s.cache.Lookup(key, versions); ok {
			return s.hitResponse(q, snap, algo, maintained, versions, start), nil
		}
	}

	// Admission: the deadline covers queue wait and execution together.
	ctx, cancel := WithTimeout(ctx, req.Timeout, s.cfg.DefaultTimeout)
	defer cancel()
	release, err := s.sched.acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	defer release()

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Versions may have moved while the request was queued; resolve again
	// and re-check the cache — an identical query ahead of us in the pool
	// may already have warmed it.
	q, key, versions, err = s.resolveLocked(req, p)
	if err != nil {
		return nil, err
	}
	if !req.NoCache {
		if snap, algo, maintained, ok := s.cache.Lookup(key, versions); ok {
			return s.hitResponse(q, snap, algo, maintained, versions, start), nil
		}
	}

	// The naive algorithm materializes the full join instead of probing
	// and ignores resident structures; don't build them for it. Auto
	// counts the join through the resident's index.
	var res *core.Resident
	if p.Alg != core.Naive {
		res, err = s.residents.get(residentKeyOf(key), q)
		if err != nil {
			return nil, err
		}
	}
	out, err := core.Exec(ctx, q, core.ExecOptions{Algorithm: p.Alg, Workers: req.Workers, Resident: res})
	if err != nil {
		return nil, err
	}
	s.computed.Add(1)
	algo := out.Algorithm.Token()
	if !req.NoCache {
		s.cache.Store(key, versions, q, out.Skyline, algo)
	}
	return &QueryResponse{
		Skyline:   out.Skyline,
		Source:    SourceComputed,
		Algorithm: algo,
		Versions:  versions,
		Locals:    [2]int{q.R1.Local, q.R2.Local},
		Elapsed:   time.Since(start),
		Stats:     &out.Stats,
	}, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	entries, maintained, watches, evictions := s.cache.Stats()
	s.mu.RLock()
	rels := relationInfos(s.rels)
	s.mu.RUnlock()
	out := Stats{
		Queries:           s.queries.Load(),
		CacheHits:         s.cacheHits.Load(),
		MaintainedHits:    s.maintainedHits.Load(),
		Computed:          s.computed.Load(),
		Inserts:           s.inserts.Load(),
		Batches:           s.batches.Load(),
		Deletes:           s.deletes.Load(),
		DeleteBatches:     s.deleteBatches.Load(),
		Expired:           s.expired.Load(),
		Rejected:          s.rejected.Load(),
		Evictions:         evictions,
		Verifies:          s.verifies.Load(),
		CacheEntries:      entries,
		MaintainedEntries: maintained,
		Residents:         s.residents.len(),
		Watches:           watches,
		Busy:              s.sched.busy(),
		Queued:            s.sched.queued(),
		LastCheckpointMS:  -1,
		Relations:         rels,
	}
	if s.store != nil {
		ss := s.store.Stats()
		out.Durable = true
		out.WALRecords = ss.WALRecords
		out.WALBytes = ss.WALBytes
		out.Segments = ss.Segments
		out.Checkpoints = ss.Checkpoints
		if !ss.LastCheckpoint.IsZero() {
			out.LastCheckpointMS = time.Since(ss.LastCheckpoint).Milliseconds()
		}
	}
	return out
}

// Close marks the service closed, waits for in-flight queries, and
// releases the cache (closing every live maintainer). Close is
// idempotent; methods called after it return ErrClosed.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the background tickers first; a sweep or checkpoint already past
	// the closed check just rides out its ingest turn like any in-flight
	// batch.
	if s.sweepStop != nil {
		close(s.sweepStop)
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
	}
	// Wait out any in-flight batch (a batch that started before the CAS is
	// entitled to its fsync and its ack), then let the exclusive lock drain
	// every reader: no query is mid-execution when the cache and registry
	// go away.
	s.ingestMu.Lock()
	s.mu.Lock()
	// Final checkpoint while the registry is still intact, so a clean
	// shutdown restarts from segments alone with an empty WAL. Best effort:
	// on failure the WAL still holds everything, recovery just replays.
	var ckptErr error
	if s.store != nil && !s.storeBroken.Load() {
		ckptErr = s.checkpointLocked()
	}
	// Every maintainer closes; every subscription ends with ErrClosed.
	s.cache.Purge(func(AnswerKey) bool { return true }, ErrClosed)
	s.residents.clear() // resident indexes pin O(n) per pair — release them
	s.rels = make(map[string]*regRelation)
	s.mu.Unlock()
	s.ingestMu.Unlock()
	// Only join the background goroutines after releasing the locks — they
	// may be blocked on ingestMu inside a final turn, which will see closed
	// and bail.
	if s.sweepDone != nil {
		<-s.sweepDone
	}
	if s.ckptDone != nil {
		<-s.ckptDone
	}
	if s.store != nil {
		if err := s.store.Close(); ckptErr == nil {
			ckptErr = err
		}
	}
	return ckptErr
}
