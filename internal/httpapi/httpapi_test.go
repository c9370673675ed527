package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/service"
)

// stub is a Backend that records what the handler decoded and answers
// with err (every method) or a fixed success.
type stub struct {
	err   error
	calls int

	name     string
	rel      *dataset.Relation
	window   time.Duration
	query    service.QueryRequest
	inserted []dataset.Tuple
	deleted  []int
}

func (s *stub) Register(_ context.Context, name string, rel *dataset.Relation, window time.Duration) (uint64, error) {
	s.calls++
	s.name, s.rel, s.window = name, rel, window
	return 1, s.err
}

func (s *stub) Unregister(_ context.Context, name string) error {
	s.calls++
	s.name = name
	return s.err
}

func (s *stub) Relations() any            { return []string{"r"} }
func (s *stub) Stats(context.Context) any { return map[string]int{"queries": s.calls} }

func (s *stub) Query(_ context.Context, req service.QueryRequest) (*service.QueryResponse, any, error) {
	s.calls++
	s.query = req
	if s.err != nil {
		return nil, nil, s.err
	}
	return &service.QueryResponse{
		Skyline:   []join.Pair{{Left: 1, Right: 2, Attrs: []float64{3, 4}}},
		Source:    service.SourceComputed,
		Algorithm: "grouping",
		Versions:  [2]uint64{1, 1},
		Locals:    [2]int{1, 1},
		Stats:     &core.Stats{Candidates: 5},
	}, map[string]int{"shards": 2}, nil
}

// Watch hands out a real subscription — to a one-pair answer in a store of
// its own — that ends with the store's purge right after its snapshot was
// queued.
func (s *stub) Watch(ctx context.Context, req service.QueryRequest) (*service.Watch, error) {
	s.calls++
	s.query = req
	if s.err != nil {
		return nil, s.err
	}
	store := service.NewAnswerStore(1)
	key, at := service.AnswerKey{R1: req.R1, R2: req.R2, K: req.K}, [2]uint64{1, 1}
	store.Store(key, at, core.Query{}, []join.Pair{{Left: 1, Right: 2, Attrs: []float64{3, 4}}}, "grouping")
	w := store.Attach(ctx, store.Standing(key, at))
	store.Purge(func(service.AnswerKey) bool { return true }, service.ErrClosed)
	return w, nil
}

func (s *stub) InsertBatch(_ context.Context, name string, ts []dataset.Tuple) (*service.InsertResult, error) {
	s.calls++
	s.name, s.inserted = name, ts
	if s.err != nil {
		return nil, s.err
	}
	return &service.InsertResult{ID: 7, Count: len(ts), Version: 2}, nil
}

func (s *stub) DeleteBatch(_ context.Context, name string, ids []int) (*service.DeleteResult, error) {
	s.calls++
	s.name, s.deleted = name, ids
	if s.err != nil {
		return nil, s.err
	}
	return &service.DeleteResult{Count: len(ids), Version: 2}, nil
}

// bound is the operator's timeout bound the table's handler runs with.
const bound = 2 * time.Second

// row is one request against the handler over a stub answering err.
type row struct {
	name, method, target, body string
	err                        error
	want                       int
	// check, when set, inspects what the backend was handed and the reply.
	check func(t *testing.T, s *stub, reply map[string]any)
}

const (
	csvBody = "key,a0,a1,a2\nA,1,2,3\nB,3,2,1\n"
	tuple   = `{"key":"A","attrs":[1,2,3]}`
)

func called(want int) func(*testing.T, *stub, map[string]any) {
	return func(t *testing.T, s *stub, _ map[string]any) {
		t.Helper()
		if s.calls != want {
			t.Errorf("backend called %d times, want %d", s.calls, want)
		}
	}
}

func timeoutIs(want time.Duration) func(*testing.T, *stub, map[string]any) {
	return func(t *testing.T, s *stub, _ map[string]any) {
		t.Helper()
		if s.query.Timeout != want {
			t.Errorf("backend saw timeout %v, want %v", s.query.Timeout, want)
		}
	}
}

var table = []row{
	{name: "healthz", method: "GET", target: "/healthz", want: 200},
	{name: "stats", method: "GET", target: "/v1/stats", want: 200},
	{name: "list relations", method: "GET", target: "/v1/relations", want: 200},

	// Method checks.
	{name: "relations: PUT", method: "PUT", target: "/v1/relations", want: 405, check: called(0)},
	{name: "query: GET", method: "GET", target: "/v1/query", want: 405, check: called(0)},
	{name: "watch: GET", method: "GET", target: "/v1/watch", want: 405, check: called(0)},
	{name: "insert: GET", method: "GET", target: "/v1/insert", want: 405, check: called(0)},
	{name: "delete: DELETE", method: "DELETE", target: "/v1/delete", want: 405, check: called(0)},

	// Registration, JSON.
	{name: "register json", method: "POST", target: "/v1/relations",
		body: `{"name":"r","local":2,"agg":1,"window_ms":60000,"tuples":[` + tuple + `,` + tuple + `]}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			if s.name != "r" || s.rel.Len() != 2 || s.rel.Local != 2 || s.rel.Agg != 1 || s.window != time.Minute {
				t.Errorf("backend registered %q: %d rows, local %d, agg %d, window %v", s.name, s.rel.Len(), s.rel.Local, s.rel.Agg, s.window)
			}
			if reply["tuples"] != 2.0 || reply["version"] != 1.0 {
				t.Errorf("reply %v", reply)
			}
		}},
	{name: "register json: truncated", method: "POST", target: "/v1/relations", body: `{"name":"r","local":2`, want: 400, check: called(0)},
	{name: "register json: bad width", method: "POST", target: "/v1/relations",
		body: `{"name":"r","local":2,"agg":0,"tuples":[` + tuple + `]}`, want: 400, check: called(0)},
	{name: "register json: duplicate", method: "POST", target: "/v1/relations",
		body: `{"name":"r","local":3,"tuples":[` + tuple + `]}`, err: service.ErrDuplicateRelation, want: 409},

	// Registration, CSV: an absent number is 0, a malformed or negative one
	// is refused before the backend (or the body) is touched.
	{name: "register csv", method: "POST", target: "/v1/relations?format=csv&name=r&local=2&agg=1&window_ms=250", body: csvBody, want: 200,
		check: func(t *testing.T, s *stub, _ map[string]any) {
			if s.name != "r" || s.rel.Len() != 2 || s.rel.Local != 2 || s.rel.Agg != 1 || s.window != 250*time.Millisecond {
				t.Errorf("backend registered %q: %d rows, local %d, agg %d, window %v", s.name, s.rel.Len(), s.rel.Local, s.rel.Agg, s.window)
			}
		}},
	{name: "register csv: absent agg and window", method: "POST", target: "/v1/relations?format=csv&name=r&local=3", body: csvBody, want: 200,
		check: func(t *testing.T, s *stub, _ map[string]any) {
			if s.rel.Agg != 0 || s.window != 0 {
				t.Errorf("agg %d window %v, want both 0", s.rel.Agg, s.window)
			}
		}},
	{name: "register csv: negative window", method: "POST", target: "/v1/relations?format=csv&name=r&local=2&agg=1&window_ms=-5", body: csvBody, want: 400, check: called(0)},
	{name: "register csv: window with a unit", method: "POST", target: "/v1/relations?format=csv&name=r&local=2&agg=1&window_ms=5s", body: csvBody, want: 400, check: called(0)},
	{name: "register csv: trailing garbage in local", method: "POST", target: "/v1/relations?format=csv&name=r&local=3x", body: csvBody, want: 400, check: called(0)},
	{name: "register csv: negative agg", method: "POST", target: "/v1/relations?format=csv&name=r&local=2&agg=-1", body: csvBody, want: 400, check: called(0)},
	{name: "register csv: non-numeric agg", method: "POST", target: "/v1/relations?format=csv&name=r&local=2&agg=one", body: csvBody, want: 400, check: called(0)},
	{name: "register csv: ragged body", method: "POST", target: "/v1/relations?format=csv&name=r&local=3", body: "key,a0,a1,a2\nA,1,2\n", want: 400, check: called(0)},

	{name: "unregister", method: "DELETE", target: "/v1/relations?name=r", want: 200},
	{name: "unregister: no name", method: "DELETE", target: "/v1/relations", want: 400, check: called(0)},
	{name: "unregister: unknown", method: "DELETE", target: "/v1/relations?name=r", err: service.ErrUnknownRelation, want: 404},

	// Query: decoding, the timeout clamp, and every error mapping.
	{name: "query", method: "POST", target: "/v1/query",
		body: `{"r1":"a","r2":"b","k":4,"join":"lt","agg":"max","algorithm":"naive","workers":3,"no_cache":true}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			want := service.QueryRequest{R1: "a", R2: "b", K: 4, Join: "lt", Agg: "max", Algorithm: "naive", Workers: 3, Timeout: bound, NoCache: true}
			if s.query != want {
				t.Errorf("backend saw %+v, want %+v", s.query, want)
			}
			if reply["count"] != 1.0 || reply["source"] != "computed" || reply["dist"] == nil || reply["stats"] == nil {
				t.Errorf("reply %v", reply)
			}
		}},
	{name: "query: components", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":4,"components":true}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			want := map[string]any{
				"left_ids": []any{1.0}, "lefts": []any{[]any{3.0}},
				"right_ids": []any{2.0}, "rights": []any{[]any{4.0}},
				"pairs": []any{[]any{0.0, 0.0}}, "aggs": []any{[]any{}},
			}
			if _, ok := reply["skyline"]; ok || reply["count"] != 1.0 || !reflect.DeepEqual(reply["candidates"], want) {
				t.Errorf("reply %v, want candidates %v and no skyline", reply, want)
			}
		}},
	{name: "query: truncated", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":`, want: 400, check: called(0)},
	{name: "query: wrong type", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":"four"}`, want: 400, check: called(0)},
	{name: "query: no timeout takes the bound", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":4}`, want: 200, check: timeoutIs(bound)},
	{name: "query: tighter timeout kept", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":4,"timeout_ms":500}`, want: 200, check: timeoutIs(500 * time.Millisecond)},
	{name: "query: looser timeout clamped", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":4,"timeout_ms":5000}`, want: 200, check: timeoutIs(bound)},
	{name: "query: negative timeout clamped", method: "POST", target: "/v1/query", body: `{"r1":"a","r2":"b","k":4,"timeout_ms":-1}`, want: 200, check: timeoutIs(bound)},
	{name: "query: unknown relation", method: "POST", target: "/v1/query", body: `{}`, err: fmt.Errorf("%w: %q", service.ErrUnknownRelation, "a"), want: 404},
	{name: "query: duplicate relation", method: "POST", target: "/v1/query", body: `{}`, err: service.ErrDuplicateRelation, want: 409},
	{name: "query: overloaded", method: "POST", target: "/v1/query", body: `{}`, err: service.ErrOverloaded, want: 429},
	{name: "query: bad request", method: "POST", target: "/v1/query", body: `{}`, err: fmt.Errorf("%w: k", service.ErrBadRequest), want: 400},
	{name: "query: closed", method: "POST", target: "/v1/query", body: `{}`, err: service.ErrClosed, want: 503},
	{name: "query: durability latched", method: "POST", target: "/v1/query", body: `{}`, err: service.ErrDurability, want: 503},
	{name: "query: deadline", method: "POST", target: "/v1/query", body: `{}`, err: context.DeadlineExceeded, want: 504},
	{name: "query: cancelled", method: "POST", target: "/v1/query", body: `{}`, err: context.Canceled, want: 504},
	{name: "query: anything else", method: "POST", target: "/v1/query", body: `{}`, err: errors.New("boom"), want: 500},

	// Watch takes the query body but neither the clamp nor no_cache.
	{name: "watch", method: "POST", target: "/v1/watch", body: `{"r1":"a","r2":"b","k":4,"timeout_ms":500,"no_cache":true}`, want: 200,
		check: func(t *testing.T, s *stub, _ map[string]any) {
			if want := (service.QueryRequest{R1: "a", R2: "b", K: 4}); s.query != want {
				t.Errorf("backend saw %+v, want %+v", s.query, want)
			}
		}},
	{name: "watch: truncated", method: "POST", target: "/v1/watch", body: `{"r1":`, want: 400, check: called(0)},
	{name: "watch: refused", method: "POST", target: "/v1/watch", body: `{}`, err: service.ErrBadRequest, want: 400},

	// Insert and delete: one form or the other, never both.
	{name: "insert: tuple", method: "POST", target: "/v1/insert", body: `{"relation":"r","tuple":` + tuple + `}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			if s.name != "r" || len(s.inserted) != 1 || s.inserted[0].Key != "A" || reply["id"] != 7.0 || reply["count"] != 1.0 {
				t.Errorf("backend got %q %v, reply %v", s.name, s.inserted, reply)
			}
		}},
	{name: "insert: tuples", method: "POST", target: "/v1/insert", body: `{"relation":"r","tuples":[` + tuple + `,` + tuple + `]}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			if len(s.inserted) != 2 || reply["count"] != 2.0 {
				t.Errorf("backend got %v, reply %v", s.inserted, reply)
			}
		}},
	{name: "insert: both forms", method: "POST", target: "/v1/insert", body: `{"relation":"r","tuple":` + tuple + `,"tuples":[` + tuple + `]}`, want: 400, check: called(0)},
	{name: "insert: neither form is the backend's to refuse", method: "POST", target: "/v1/insert", body: `{"relation":"r"}`, err: service.ErrBadRequest, want: 400,
		check: func(t *testing.T, s *stub, _ map[string]any) {
			if s.calls != 1 || len(s.inserted) != 0 {
				t.Errorf("backend called %d times with %v, want once with an empty batch", s.calls, s.inserted)
			}
		}},
	{name: "insert: truncated", method: "POST", target: "/v1/insert", body: `{"relation":"r","tuple":`, want: 400, check: called(0)},
	{name: "delete: id", method: "POST", target: "/v1/delete", body: `{"relation":"r","id":0}`, want: 200,
		check: func(t *testing.T, s *stub, reply map[string]any) {
			if !reflect.DeepEqual(s.deleted, []int{0}) || reply["count"] != 1.0 {
				t.Errorf("backend got %v, reply %v", s.deleted, reply)
			}
		}},
	{name: "delete: ids", method: "POST", target: "/v1/delete", body: `{"relation":"r","ids":[4,0,7]}`, want: 200,
		check: func(t *testing.T, s *stub, _ map[string]any) {
			if !reflect.DeepEqual(s.deleted, []int{4, 0, 7}) {
				t.Errorf("backend got %v, want the ids as sent", s.deleted)
			}
		}},
	{name: "delete: both forms", method: "POST", target: "/v1/delete", body: `{"relation":"r","id":0,"ids":[1]}`, want: 400, check: called(0)},
	{name: "delete: truncated", method: "POST", target: "/v1/delete", body: `{"relation":"r","ids":[`, want: 400, check: called(0)},
	{name: "delete: unknown relation", method: "POST", target: "/v1/delete", body: `{"relation":"r","id":0}`, err: service.ErrUnknownRelation, want: 404},
}

// serve runs one request through the wire surface over s.
func serve(s *stub, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	New(s, bound, WriteServiceError).ServeHTTP(rec, req)
	return rec
}

// TestHandlerTable drives every decoder of the shared wire surface against
// a stub backend: what status a request gets, and what the backend is
// handed when it gets that far.
func TestHandlerTable(t *testing.T) {
	for _, r := range table {
		t.Run(r.name, func(t *testing.T) {
			s := &stub{err: r.err}
			rec := serve(s, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
			if rec.Code != r.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, r.want, rec.Body)
			}
			var reply map[string]any
			if ct := rec.Header().Get("Content-Type"); ct == "application/json" {
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Fatalf("reply is not a JSON object: %v (%s)", err, rec.Body)
				}
				if (rec.Code != 200) != (reply["error"] != nil) {
					t.Fatalf("status %d with reply %v: an error body goes with every non-200 and no 200", rec.Code, reply)
				}
			} else if r.target != "/v1/watch" || ct != "application/x-ndjson" {
				t.Fatalf("content type %q", ct)
			}
			if r.check != nil {
				r.check(t, s, reply)
			}
		})
	}
}

// TestClampWithoutBound: with the operator's bound disabled a client's
// timeout passes through, except the embedder-only negative "no deadline".
func TestClampWithoutBound(t *testing.T) {
	for in, want := range map[int64]time.Duration{0: 0, 500: 500 * time.Millisecond, 3600_000: time.Hour, -1: 0} {
		if got := Clamp(in, 0); got != want {
			t.Errorf("Clamp(%d, 0) = %v, want %v", in, got, want)
		}
	}
}

// statuses is the documented set: 200 and the codes WriteServiceError and
// the decoders answer with, plus the mux's own 301 (path cleaning) and 404
// (no such route).
var statuses = map[int]bool{200: true, 301: true, 400: true, 404: true, 405: true, 409: true, 429: true, 500: true, 503: true, 504: true}

// backendErrors is what FuzzHandler's stub may answer with.
var backendErrors = []error{
	nil, service.ErrUnknownRelation, service.ErrDuplicateRelation, service.ErrOverloaded, service.ErrBadRequest,
	service.ErrClosed, service.ErrDurability, context.DeadlineExceeded, context.Canceled, errors.New("boom"),
}

// FuzzHandler throws arbitrary methods, targets and bodies at the wire
// surface over a stub answering an arbitrary error: no panic, and a status
// from the documented set.
func FuzzHandler(f *testing.F) {
	for i, r := range table {
		f.Add(r.method, r.target, r.body, uint8(i))
	}
	f.Fuzz(func(t *testing.T, method, target, body string, errIdx uint8) {
		req, err := http.NewRequest(method, target, strings.NewReader(body))
		if err != nil || req.URL.Path == "" {
			t.Skip() // not a request a server would be handed
		}
		rec := serve(&stub{err: backendErrors[int(errIdx)%len(backendErrors)]}, req)
		if !statuses[rec.Code] {
			t.Fatalf("%s %s: status %d is not in the documented set", method, target, rec.Code)
		}
	})
}

// FuzzVerify posts arbitrary bodies to /v1/verify — the verification
// round's shard side, which only NewHandler mounts — over a real service
// holding two small relations: no panic, and a status from the documented
// set.
func FuzzVerify(f *testing.F) {
	svc := service.New(service.Config{SweepInterval: -1})
	f.Cleanup(func() { svc.Close() })
	for _, name := range []string{"r1", "r2"} {
		rel, err := dataset.New(name, 2, 1, []dataset.Tuple{
			{Key: "a", Band: 1, Attrs: []float64{1, 2, 3}},
			{Key: "a", Band: 2, Attrs: []float64{3, 2, 1}},
			{Key: "b", Band: 3, Attrs: []float64{2, 2, 2}},
		})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := svc.Register(name, rel); err != nil {
			f.Fatal(err)
		}
	}
	h := NewHandler(svc, bound)
	for _, body := range []string{
		`{"r1":"r1","r2":"r2","k":4,"vectors":[[1,2,3,4,5]]}`,
		`{"r1":"r1","r2":"r2","k":5,"join":"lt","agg":"max","vectors":[[1,2,3,4,5],[0,0,0,0,0]],"timeout_ms":50}`,
		`{"r1":"r2","r2":"r1","k":4,"join":"cross","agg":"min","vectors":[]}`,
		`{"r1":"r1","r2":"r2","k":4,"vectors":[[1,2]]}`,
		`{"r1":"r1","r2":"nope","k":4,"vectors":[[1,2,3,4,5]]}`,
		`{"r1":"r1","r2":"r2","k":99,"vectors":[[1,2,3,4,5]]}`,
		`{"r1":"r1","r2":"r2","k":4,"join":"nope","vectors":[[1,2,3,4,5]]}`,
		`{"r1":"r1","r2":"r2","k":4,"vectors":[[1,2,3,4,5]]`,
		``,
		// The compact form: valid, an index past its table, a negative
		// index, a short table row, and both forms at once.
		`{"r1":"r1","r2":"r2","k":4,"candidates":{"lefts":[[1,2],[0,0]],"rights":[[3,4]],"pairs":[[0,0],[1,0]],"aggs":[[5],[0]]}}`,
		`{"r1":"r1","r2":"r2","k":4,"candidates":{"lefts":[[1,2]],"rights":[[3,4]],"pairs":[[0,1]],"aggs":[[5]]}}`,
		`{"r1":"r1","r2":"r2","k":4,"candidates":{"lefts":[[1,2]],"rights":[[3,4]],"pairs":[[-1,0]],"aggs":[[5]]}}`,
		`{"r1":"r1","r2":"r2","k":4,"candidates":{"lefts":[[1]],"rights":[[3,4]],"pairs":[[0,0]],"aggs":[[5]]}}`,
		`{"r1":"r1","r2":"r2","k":4,"vectors":[[1,2,3,4,5]],"candidates":{"lefts":[[1,2]],"rights":[[3,4]],"pairs":[[0,0]],"aggs":[[5]]}}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/verify", strings.NewReader(body)))
		if !statuses[rec.Code] {
			t.Fatalf("%q: status %d is not in the documented set", body, rec.Code)
		}
		// A pair indexing outside its tables over the held relations is a
		// bad request whatever else the body says.
		var req VerifyJSON
		if json.Unmarshal([]byte(body), &req) == nil && req.Candidates != nil && outOfRange(req.Candidates) &&
			(req.R1 == "r1" || req.R1 == "r2") && (req.R2 == "r1" || req.R2 == "r2") && rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: out-of-range pair answered %d, want 400", body, rec.Code)
		}
	})
}

// outOfRange reports whether some pair indexes outside its tables.
func outOfRange(c *CandidatesJSON) bool {
	for _, p := range c.Pairs {
		if p[0] < 0 || p[0] >= len(c.Lefts) || p[1] < 0 || p[1] >= len(c.Rights) {
			return true
		}
	}
	return false
}

// TestCandidatesRoundTrip pins the compact form end to end: an answer
// split into CandidatesJSON, encoded, decoded and recombined is the
// answer, bit for bit — negative zero and the extreme finite values
// included — with one-row tables and with none. An empty answer encodes
// every list as [].
func TestCandidatesRoundTrip(t *testing.T) {
	const l1, l2 = 2, 1
	big, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		sky  []join.Pair
	}{
		{"empty", []join.Pair{}},
		{"one row each side", []join.Pair{
			{Left: 4, Right: 9, Attrs: []float64{negZero, big, -big, tiny}},
		}},
		{"shared rows", []join.Pair{
			{Left: 0, Right: 1, Attrs: []float64{negZero, 1e-300, 2.5, -tiny}},
			{Left: 0, Right: 3, Attrs: []float64{negZero, 1e-300, big, 0}},
			{Left: 7, Right: 1, Attrs: []float64{-big, 0.1, 2.5, negZero}},
			{Left: 7, Right: 3, Attrs: []float64{-big, 0.1, big, 1 / 3.0}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(Candidates(tc.sky, l1, l2))
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.sky) == 0 {
				if want := `{"left_ids":[],"lefts":[],"right_ids":[],"rights":[],"pairs":[],"aggs":[]}`; string(body) != want {
					t.Fatalf("empty answer encodes as %s, want %s", body, want)
				}
			}
			var wire CandidatesJSON
			if err := json.Unmarshal(body, &wire); err != nil {
				t.Fatal(err)
			}
			c := join.Components(wire)
			if err := c.Check(l1, l2, 1); err != nil {
				t.Fatalf("decoded form fails its check: %v", err)
			}
			vectors := c.Vectors()
			if len(vectors) != len(tc.sky) {
				t.Fatalf("%d vectors back, want %d", len(vectors), len(tc.sky))
			}
			for n, p := range tc.sky {
				if got := [2]int{c.LeftIDs[c.Pairs[n][0]], c.RightIDs[c.Pairs[n][1]]}; got != [2]int{p.Left, p.Right} {
					t.Errorf("pair %d ids %v, want (%d,%d)", n, got, p.Left, p.Right)
				}
				for j, want := range p.Attrs {
					if math.Float64bits(vectors[n][j]) != math.Float64bits(want) {
						t.Errorf("pair %d attr %d = %v, want %v bit for bit", n, j, vectors[n][j], want)
					}
				}
			}
		})
	}
}
