// Package httpapi is the HTTP JSON codec over the KSJQ query service:
// every endpoint decodes a request, calls the same method an embedder
// would, and encodes the response. No query logic lives here. Pair lists
// — skylines and watch deltas — go out through one encoder (encode.go),
// and a hit writes the encoding its standing answer's snapshot keeps. The
// handler is written once against Backend, which both ksjqd modes stand
// behind: the local service (NewHandler) and the sharded gateway
// (internal/shard) — which also speaks this surface as a client against
// each shard process, which is why the wire types are exported.
//
//	POST   /v1/relations  {"name","local","agg","tuples":[{"key","band","attrs"}],"window_ms":60000}
//	POST   /v1/relations?format=csv&name=r1&local=3&agg=1[&band=1][&window_ms=60000]   (CSV body)
//	GET    /v1/relations
//	DELETE /v1/relations?name=r1
//	POST   /v1/query      {"r1","r2","k","join","agg","algorithm","workers","timeout_ms","no_cache","components"}
//	                      ("components":true answers "candidates", the compact form, instead of "skyline";
//	                      "no_cache":true recomputes and leaves no answer in the cache)
//	POST   /v1/verify     {"r1","r2","k","join","agg","timeout_ms"} plus "vectors":[[...],...]
//	                      or "candidates":{"lefts","rights","pairs","aggs"} (the compact form)
//	POST   /v1/watch      same body as /v1/query; responds with NDJSON answer deltas
//	POST   /v1/insert     {"relation","tuple":{"key","band","attrs"}}
//	                      or {"relation","tuples":[{...},...]} (one group commit)
//	POST   /v1/delete     {"relation","id":3} or {"relation","ids":[0,4,7]}
//	                      (one group commit; ids are current row indexes)
//	GET    /v1/stats
//	GET    /healthz
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/service"
)

// TupleJSON is the wire form of one tuple.
type TupleJSON struct {
	Key   string    `json:"key"`
	Key2  string    `json:"key2,omitempty"`
	Band  float64   `json:"band,omitempty"`
	Attrs []float64 `json:"attrs"`
}

// Tuple converts to the dataset form.
func (t TupleJSON) Tuple() dataset.Tuple {
	return dataset.Tuple{Key: t.Key, Key2: t.Key2, Band: t.Band, Attrs: t.Attrs}
}

// FromTuple converts a dataset tuple to its wire form.
func FromTuple(t dataset.Tuple) TupleJSON {
	return TupleJSON{Key: t.Key, Key2: t.Key2, Band: t.Band, Attrs: t.Attrs}
}

// PairJSON is the wire form of one skyline tuple, as clients decode it;
// the server writes it with appendPairs (encode.go).
type PairJSON struct {
	Left  int       `json:"left"`
	Right int       `json:"right"`
	Attrs []float64 `json:"attrs"`
}

// CandidatesJSON is the wire form of join.Components, the compact
// candidate form both rounds of the distributed scheme ship: each
// distinct left and right row's local attributes once ("lefts", "rights",
// with their tuple ids in "left_ids", "right_ids"), and per joined vector
// its ("pairs") [left index, right index] and its aggregated values
// ("aggs"). Vector n is lefts[pairs[n][0]] ++ rights[pairs[n][1]] ++
// aggs[n]. A verification batch carries no ids. The two types convert
// into each other for free.
type CandidatesJSON struct {
	LeftIDs  []int       `json:"left_ids,omitzero"`
	Lefts    [][]float64 `json:"lefts"`
	RightIDs []int       `json:"right_ids,omitzero"`
	Rights   [][]float64 `json:"rights"`
	Pairs    [][2]int    `json:"pairs"`
	Aggs     [][]float64 `json:"aggs"`
}

// Candidates converts an answer to its compact wire form, given R1's and
// R2's local widths; an empty answer encodes as empty lists.
func Candidates(sky []join.Pair, l1, l2 int) *CandidatesJSON {
	c := CandidatesJSON(join.Split(sky, l1, l2))
	return &c
}

// QueryJSON is the wire form of a query (and watch) request. Components
// asks a query for its answer in compact form; a watch ignores it.
type QueryJSON struct {
	R1        string `json:"r1"`
	R2        string `json:"r2"`
	K         int    `json:"k"`
	Join      string `json:"join,omitempty"`
	Agg       string `json:"agg,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// NoCache asks a query for a recompute that neither reads nor writes
	// the answer cache (service.QueryRequest.NoCache); a watch ignores it.
	NoCache bool `json:"no_cache,omitempty"`
	// Components is set by the gateway's round-1 legs (DESIGN.md §13).
	Components bool `json:"components,omitempty"`
}

// Request converts to the service's request form. Timeout and NoCache are
// left for the caller: a query applies the operator's Clamp, a watch is
// long-lived by design and takes neither.
func (q QueryJSON) Request() service.QueryRequest {
	return service.QueryRequest{
		R1: q.R1, R2: q.R2, K: q.K,
		Join: q.Join, Agg: q.Agg, Algorithm: q.Algorithm,
		Workers: q.Workers,
	}
}

// QueryResponseJSON is the wire form of one answer: Skyline, or
// Candidates when the query asked for components. The server writes the
// skyline itself (writeQueryReply) and this type for the rest, so
// "skyline" always comes first.
type QueryResponseJSON struct {
	Skyline    []PairJSON      `json:"skyline,omitzero"`
	Candidates *CandidatesJSON `json:"candidates,omitempty"`
	Count      int             `json:"count"`
	Source     string          `json:"source"`
	Algorithm  string          `json:"algorithm"`
	Versions   [2]uint64       `json:"versions"`
	ElapsedUS  int64           `json:"elapsed_us"`
	Stats      *StatsJSON      `json:"stats,omitempty"`
	// Dist is the two-round breakdown a gateway reports (Backend.Query).
	Dist any `json:"dist,omitempty"`
}

// StatsJSON flattens the engine's per-phase breakdown to microseconds.
type StatsJSON struct {
	GroupingUS  int64 `json:"grouping_us"`
	JoinUS      int64 `json:"join_us"`
	DominatorUS int64 `json:"dominator_us"`
	RemainingUS int64 `json:"remaining_us"`
	TotalUS     int64 `json:"total_us"`
	Candidates  int   `json:"candidates"`
	YesEmitted  int   `json:"yes_emitted"`
	DomTests    int64 `json:"domination_tests"`
}

// RegisterJSON is the wire form of a JSON relation registration.
type RegisterJSON struct {
	Name     string      `json:"name"`
	Local    int         `json:"local"`
	Agg      int         `json:"agg"`
	Tuples   []TupleJSON `json:"tuples"`
	WindowMS int64       `json:"window_ms,omitempty"`
}

// RegisterResponseJSON acknowledges a registration.
type RegisterResponseJSON struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Tuples  int    `json:"tuples"`
}

// InsertJSON is the wire form of an insert: one tuple or a batch.
type InsertJSON struct {
	Relation string      `json:"relation"`
	Tuple    *TupleJSON  `json:"tuple,omitempty"`
	Tuples   []TupleJSON `json:"tuples,omitempty"`
}

// Batch resolves the two request forms to one batch; giving both is a
// client error. An empty batch passes through — the service rejects it.
func (in InsertJSON) Batch() ([]dataset.Tuple, error) {
	if in.Tuple != nil {
		if len(in.Tuples) > 0 {
			return nil, errors.New(`give "tuple" or "tuples", not both`)
		}
		return []dataset.Tuple{in.Tuple.Tuple()}, nil
	}
	tuples := make([]dataset.Tuple, len(in.Tuples))
	for i, t := range in.Tuples {
		tuples[i] = t.Tuple()
	}
	return tuples, nil
}

// InsertResponseJSON reports one ingest group commit.
type InsertResponseJSON struct {
	ID          int    `json:"id"`
	Count       int    `json:"count"`
	Version     uint64 `json:"version"`
	Maintained  int    `json:"maintained"`
	Invalidated int    `json:"invalidated"`
	Displaced   int    `json:"displaced"`
	Admitted    int    `json:"admitted"`
}

// DeleteJSON is the wire form of a delete: one row id or a batch.
type DeleteJSON struct {
	Relation string `json:"relation"`
	ID       *int   `json:"id,omitempty"`
	IDs      []int  `json:"ids,omitempty"`
}

// Batch resolves the two request forms to one batch; giving both is a
// client error. An empty batch passes through — the service rejects it.
func (d DeleteJSON) Batch() ([]int, error) {
	if d.ID != nil {
		if len(d.IDs) > 0 {
			return nil, errors.New(`give "id" or "ids", not both`)
		}
		return []int{*d.ID}, nil
	}
	return d.IDs, nil
}

// DeleteResponseJSON reports one delete group commit.
type DeleteResponseJSON struct {
	Count       int    `json:"count"`
	Version     uint64 `json:"version"`
	Maintained  int    `json:"maintained"`
	Invalidated int    `json:"invalidated"`
	Evicted     int    `json:"evicted"`
	Resurrected int    `json:"resurrected"`
}

// VerifyJSON is the wire form of a verification-round request: foreign
// candidate vectors to check against the local join, as joined Vectors or
// as compact Candidates — one of the two.
type VerifyJSON struct {
	R1         string          `json:"r1"`
	R2         string          `json:"r2"`
	K          int             `json:"k"`
	Join       string          `json:"join,omitempty"`
	Agg        string          `json:"agg,omitempty"`
	Vectors    [][]float64     `json:"vectors,omitempty"`
	Candidates *CandidatesJSON `json:"candidates,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// VerifyResponseJSON reports the votes, parallel to the request vectors.
type VerifyResponseJSON struct {
	Dominated []bool    `json:"dominated"`
	Versions  [2]uint64 `json:"versions"`
	ElapsedUS int64     `json:"elapsed_us"`
}

// Backend is what the wire surface serves: the local service or the
// gateway's scatter-gather over shard processes. Clients cannot tell the
// two apart except where a backend says so — the shapes of its listings,
// the extra block on its query replies, the errors it refuses with.
type Backend interface {
	// Register takes ownership of a validated-on-arrival relation; window
	// is the sliding-window length (0 = none).
	Register(ctx context.Context, name string, rel *dataset.Relation, window time.Duration) (version uint64, err error)
	Unregister(ctx context.Context, name string) error
	// Relations and Stats are encoded as returned.
	Relations() any
	Stats(ctx context.Context) any
	// Query's dist, when non-nil, is encoded as the reply's "dist" block.
	Query(ctx context.Context, req service.QueryRequest) (resp *service.QueryResponse, dist any, err error)
	Watch(ctx context.Context, req service.QueryRequest) (*service.Watch, error)
	InsertBatch(ctx context.Context, name string, ts []dataset.Tuple) (*service.InsertResult, error)
	DeleteBatch(ctx context.Context, name string, ids []int) (*service.DeleteResult, error)
}

// local stands a *service.Service behind Backend; Watch is the service's
// own.
type local struct{ *service.Service }

func (l local) Register(_ context.Context, name string, rel *dataset.Relation, window time.Duration) (uint64, error) {
	return l.RegisterWindow(name, rel, window)
}
func (l local) Unregister(_ context.Context, name string) error { return l.Service.Unregister(name) }
func (l local) Relations() any                                  { return l.Service.Relations() }
func (l local) Stats(context.Context) any                       { return l.Service.Stats() }
func (l local) Query(ctx context.Context, req service.QueryRequest) (*service.QueryResponse, any, error) {
	resp, err := l.Service.Query(ctx, req)
	return resp, nil, err
}
func (l local) InsertBatch(_ context.Context, name string, ts []dataset.Tuple) (*service.InsertResult, error) {
	return l.Service.InsertBatch(name, ts)
}
func (l local) DeleteBatch(_ context.Context, name string, ids []int) (*service.DeleteResult, error) {
	return l.Service.DeleteBatch(name, ids)
}

// handler carries the wire surface's operator-level policy: clients may
// tighten the per-request deadline but never loosen it past maxTimeout
// (0 = the operator disabled the bound). writeErr maps the backend's
// errors onto status codes.
type handler struct {
	b          Backend
	maxTimeout time.Duration
	writeErr   func(http.ResponseWriter, error)
}

// NewHandler builds the ksjqd HTTP surface over svc. maxTimeout is the
// operator's per-request deadline bound; 0 disables it.
func NewHandler(svc *service.Service, maxTimeout time.Duration) http.Handler {
	mux := New(local{svc}, maxTimeout, WriteServiceError)
	mux.HandleFunc("/v1/verify", post(verifyHandler(svc, maxTimeout)))
	return mux
}

// New builds the wire surface every backend serves — /healthz and /v1/
// relations, query, watch, insert, delete, stats — with writeErr mapping
// the backend's errors (WriteServiceError for a local service). The mux is
// returned so a backend can route what only it has beside it.
func New(b Backend, maxTimeout time.Duration, writeErr func(http.ResponseWriter, error)) *http.ServeMux {
	h := &handler{b: b, maxTimeout: maxTimeout, writeErr: writeErr}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/v1/relations", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			WriteJSON(w, http.StatusOK, map[string]any{"relations": b.Relations()})
		case http.MethodPost:
			h.handleLoad(w, r)
		case http.MethodDelete:
			h.handleUnregister(w, r)
		default:
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET, POST or DELETE"))
		}
	})
	mux.HandleFunc("/v1/query", post(h.handleQuery))
	mux.HandleFunc("/v1/watch", post(h.handleWatch))
	mux.HandleFunc("/v1/insert", post(h.handleInsert))
	mux.HandleFunc("/v1/delete", post(h.handleDelete))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, b.Stats(r.Context()))
	})
	return mux
}

// post refuses every method but POST.
func post(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		fn(w, r)
	}
}

// Clamp applies the operator bound (0 = none) to a wire timeout: a client
// may tighten the deadline but never loosen it. Negative values (the
// service's embedder-only "no deadline" escape hatch) and anything beyond
// the bound fall back to the bound, so no client can pin a worker slot
// past it.
func Clamp(timeoutMS int64, bound time.Duration) time.Duration {
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if timeout < 0 || (bound > 0 && (timeout == 0 || timeout > bound)) {
		timeout = bound
	}
	return timeout
}

// handleLoad registers a relation from a JSON tuple list or a CSV body;
// either way the rows are schema-checked here, before the backend sees
// them.
func (h *handler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var name string
	var rel *dataset.Relation
	var window time.Duration
	var err error
	if q := r.URL.Query(); q.Get("format") == "csv" {
		// A malformed or negative number is refused before the body is
		// read: read as 0, ?window_ms=5s would register an unwindowed
		// relation whose rows never expire.
		local, errLocal := queryInt(q, "local")
		agg, errAgg := queryInt(q, "agg")
		windowMS, errWindow := queryInt(q, "window_ms")
		if err := errors.Join(errLocal, errAgg, errWindow); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		name = q.Get("name")
		window = time.Duration(windowMS) * time.Millisecond
		rel, err = dataset.ReadCSV(r.Body, dataset.ReadOptions{
			Name: name, Local: local, Agg: agg,
			HasBand: q.Get("band") != "" && q.Get("band") != "0",
		})
	} else {
		var req RegisterJSON
		if !decode(w, r, &req) {
			return
		}
		name = req.Name
		window = time.Duration(req.WindowMS) * time.Millisecond
		tuples := make([]dataset.Tuple, len(req.Tuples))
		for i, t := range req.Tuples {
			tuples[i] = t.Tuple()
		}
		rel, err = dataset.New(name, req.Local, req.Agg, tuples)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	tuples := rel.Len() // the backend owns rel once it is registered
	version, err := h.b.Register(r.Context(), name, rel, window)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, RegisterResponseJSON{Name: name, Version: version, Tuples: tuples})
}

func (h *handler) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing ?name="))
		return
	}
	if err := h.b.Unregister(r.Context(), name); err != nil {
		h.writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"name": name, "unregistered": true})
}

func (h *handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryJSON
	if !decode(w, r, &req) {
		return
	}
	sreq := req.Request()
	sreq.Timeout, sreq.NoCache = Clamp(req.TimeoutMS, h.maxTimeout), req.NoCache
	resp, dist, err := h.b.Query(r.Context(), sreq)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	out := QueryResponseJSON{
		Count:     len(resp.Skyline),
		Source:    string(resp.Source),
		Algorithm: resp.Algorithm,
		Versions:  resp.Versions,
		ElapsedUS: resp.Elapsed.Microseconds(),
		Dist:      dist,
	}
	if st := resp.Stats; st != nil {
		out.Stats = &StatsJSON{
			GroupingUS:  st.GroupingTime.Microseconds(),
			JoinUS:      st.JoinTime.Microseconds(),
			DominatorUS: st.DominatorTime.Microseconds(),
			RemainingUS: st.RemainingTime.Microseconds(),
			TotalUS:     st.Total.Microseconds(),
			Candidates:  st.Candidates,
			YesEmitted:  st.YesEmitted,
			DomTests:    st.DominationTests,
		}
	}
	if req.Components {
		out.Candidates = Candidates(resp.Skyline, resp.Locals[0], resp.Locals[1])
		WriteJSON(w, http.StatusOK, out)
		return
	}
	writeQueryReply(w, resp, &out)
}

// verifyHandler serves the verification round, which only a process
// holding relations can answer — a gateway does not route it.
func verifyHandler(svc *service.Service, maxTimeout time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req VerifyJSON
		if !decode(w, r, &req) {
			return
		}
		resp, err := svc.Verify(r.Context(), service.VerifyRequest{
			R1: req.R1, R2: req.R2, K: req.K,
			Join: req.Join, Agg: req.Agg,
			Vectors:    req.Vectors,
			Candidates: (*join.Components)(req.Candidates),
			Timeout:    Clamp(req.TimeoutMS, maxTimeout),
		})
		if err != nil {
			WriteServiceError(w, err)
			return
		}
		dominated := resp.Dominated
		if dominated == nil {
			dominated = []bool{}
		}
		WriteJSON(w, http.StatusOK, VerifyResponseJSON{
			Dominated: dominated,
			Versions:  resp.Versions,
			ElapsedUS: resp.Elapsed.Microseconds(),
		})
	}
}

// handleWatch upgrades a query into a standing subscription: the response
// is an unbounded application/x-ndjson stream of answer deltas, one JSON
// object per line (appendEvent), flushed as they happen: the initial
// snapshot (seq 0, all added), then one line per mutation batch that
// touched the watched relations. The stream ends when the
// client disconnects (the request context cancels the watch) or the
// backend shuts down. The timeout clamp is deliberately not applied —
// a watch is long-lived by design; its lifetime is the connection's.
func (h *handler) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req QueryJSON
	if !decode(w, r, &req) {
		return
	}
	watch, err := h.b.Watch(r.Context(), req.Request())
	if err != nil {
		h.writeErr(w, err)
		return
	}
	defer watch.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var line []byte
	for ev := range watch.Events() {
		line = appendEvent(line[:0], ev)
		if _, err := w.Write(line); err != nil {
			return // client went away; the deferred Close tears down
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleInsert accepts the original single-tuple form ("tuple") and the
// batch form ("tuples"); both run through the backend's group-commit
// ingest, a batch paying one version bump and one maintenance pass for
// the whole set.
func (h *handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertJSON
	if !decode(w, r, &req) {
		return
	}
	tuples, err := req.Batch()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := h.b.InsertBatch(r.Context(), req.Relation, tuples)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, InsertResponseJSON{
		ID: res.ID, Count: res.Count, Version: res.Version,
		Maintained: res.Maintained, Invalidated: res.Invalidated,
		Displaced: res.Displaced, Admitted: res.Admitted,
	})
}

// handleDelete accepts a single row id ("id") or a batch ("ids"); both
// run through the backend's group-commit delete, a batch paying one
// version bump and one maintenance pass for the whole set. Ids are the
// rows' current indexes — surviving rows renumber after the commit, so
// batch members are resolved against the same pre-delete numbering.
func (h *handler) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteJSON
	if !decode(w, r, &req) {
		return
	}
	ids, err := req.Batch()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := h.b.DeleteBatch(r.Context(), req.Relation, ids)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, DeleteResponseJSON{
		Count: res.Count, Version: res.Version,
		Maintained: res.Maintained, Invalidated: res.Invalidated,
		Evicted: res.Evicted, Resurrected: res.Resurrected,
	})
}

// decode reads the request's JSON body into v, answering 400 itself (and
// returning false) when it is malformed.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	}
	return err == nil
}

// WriteServiceError maps service errors onto HTTP status codes.
func WriteServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrUnknownRelation):
		WriteError(w, http.StatusNotFound, err)
	case errors.Is(err, service.ErrDuplicateRelation):
		WriteError(w, http.StatusConflict, err)
	case errors.Is(err, service.ErrOverloaded):
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, service.ErrBadRequest):
		WriteError(w, http.StatusBadRequest, err)
	case errors.Is(err, service.ErrClosed), errors.Is(err, service.ErrDurability):
		// Both mean "this process can't take mutations anymore; restart":
		// 503 tells well-behaved clients to back off, not retry in place.
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		WriteError(w, http.StatusGatewayTimeout, err)
	default:
		WriteError(w, http.StatusInternalServerError, err)
	}
}

// WriteError encodes an error as the standard {"error": "..."} body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteJSON encodes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// queryInt parses a non-negative integer query parameter; an absent one
// is 0.
func queryInt(q url.Values, name string) (int, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("?%s=%q: want a non-negative integer", name, s)
	}
	return n, nil
}
