package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/service"
)

// pairsJSON is the []PairJSON form encoding/json encoded every pair list
// from, and the reference the encoder is held to byte for byte.
func pairsJSON(sky []join.Pair) []PairJSON {
	out := make([]PairJSON, len(sky))
	for i, p := range sky {
		out[i] = PairJSON{Left: p.Left, Right: p.Right, Attrs: p.Attrs}
	}
	return out
}

// watchEventJSON is the struct encoding/json encoded watch lines from.
type watchEventJSON struct {
	Seq      uint64     `json:"seq"`
	Added    []PairJSON `json:"added,omitempty"`
	Removed  []PairJSON `json:"removed,omitempty"`
	Versions [2]uint64  `json:"versions"`
}

// floatBytes lays values out the way FuzzAppendPairs reads them.
func floatBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAppendPairs holds the encoder to encoding/json: for any finite
// values, any split of the vectors into l1 left and l2 right local values
// (0 included) and ids repeating in any order — one id, one row, as in an
// answer — appendPairs writes exactly what json.Marshal writes for the
// []PairJSON form, and appendEvent exactly what json.Encoder wrote for a
// watch line.
func FuzzAppendPairs(f *testing.F) {
	special := floatBytes(math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		3, -12, 1e20, 9.999999999999999e-7, 0.1, 123456.789, 1e-300)
	f.Add(uint8(2), uint8(1), uint8(1), []byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 0, 0}, special)
	f.Add(uint8(0), uint8(3), uint8(0), []byte{3, 3, 1, 2, 3, 3}, special)
	f.Add(uint8(3), uint8(0), uint8(2), []byte{}, special)
	f.Add(uint8(1), uint8(1), uint8(0), []byte{7, 7}, []byte{})
	f.Fuzz(func(t *testing.T, l1, l2, agg uint8, ids, vals []byte) {
		w1, w2, wa := int(l1%4), int(l2%4), int(agg%3)
		next := func(i int) float64 { // the i-th value, cycling over vals
			if len(vals) < 8 {
				return float64(i)
			}
			at := i * 8 % (len(vals) - len(vals)%8)
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[at:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = math.Float64frombits(math.Float64bits(v) &^ (1 << 62)) // clear the top exponent bit: finite
			}
			return v
		}
		row := func(side, id, width int) []float64 {
			r := make([]float64, width)
			for j := range r {
				r[j] = next(side*1000 + id*width + j)
			}
			return r
		}
		var sky []join.Pair
		for n := 0; n+1 < len(ids) && n < 128; n += 2 {
			left, right := int(ids[n]%5), int(ids[n+1]%5)
			attrs := append(append(row(0, left, w1), row(1, right, w2)...), row(2, n, wa)...)
			sky = append(sky, join.Pair{Left: left, Right: right, Attrs: attrs})
		}
		want, err := json.Marshal(pairsJSON(sky))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendPairs([]byte("prefix"), sky, w1, w2); string(got) != "prefix"+string(want) {
			t.Fatalf("l1=%d l2=%d:\n got %s\nwant prefix%s", w1, w2, got, want)
		}

		ev := service.WatchEvent{Seq: uint64(len(ids)), Added: sky, Removed: sky[len(sky)/2:], Versions: [2]uint64{uint64(w1), math.MaxUint64}}
		var line bytes.Buffer
		if err := json.NewEncoder(&line).Encode(watchEventJSON{Seq: ev.Seq, Added: pairsJSON(ev.Added), Removed: pairsJSON(ev.Removed), Versions: ev.Versions}); err != nil {
			t.Fatal(err)
		}
		if got := appendEvent(nil, ev); string(got) != line.String() {
			t.Fatalf("watch line\n got %s\nwant %s", got, line.Bytes())
		}
	})
}

// frontRelation is n rows on one join key along the anti-diagonal, none
// dominating another: at k = 4 every one of the n² joined pairs is in the
// answer.
func frontRelation(t testing.TB, name string, n int) *dataset.Relation {
	t.Helper()
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		ts[i] = dataset.Tuple{Key: "g", Attrs: []float64{float64(i) / 7, float64(n-1-i) / 3}}
	}
	rel, err := dataset.New(name, 2, 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// newService is a service without the background sweeper, closed with the
// test.
func newService(t testing.TB) *service.Service {
	t.Helper()
	svc := service.New(service.Config{SweepInterval: -1})
	t.Cleanup(func() { svc.Close() })
	return svc
}

// discard is a ResponseWriter that keeps the status, the headers and the
// body's length, reusing its header map from reply to reply.
type discard struct {
	header http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestQueryHitReplyAllocs: a warm hit through the handler allocates no
// more — in count or in bytes — on a 4 096-pair answer (a 370 KB reply)
// than on a 4-pair one: it writes the snapshot's encoding, and nothing
// proportional to the answer is built per hit. Counts are per-hit means
// over many hits, since under -race sync.Pool drops items at random.
func TestQueryHitReplyAllocs(t *testing.T) {
	hit := func(n int) (allocs, bytesPerHit float64, body int) {
		svc := newService(t)
		for _, name := range []string{"r1", "r2"} {
			if _, err := svc.Register(name, frontRelation(t, name, n)); err != nil {
				t.Fatal(err)
			}
		}
		h := NewHandler(svc, bound)
		const query = `{"r1":"r1","r2":"r2","k":4}`
		rd := strings.NewReader(query)
		req := httptest.NewRequest("POST", "/v1/query", rd)
		w := &discard{header: http.Header{}}
		serve := func() {
			rd.Reset(query)
			w.n = 0
			h.ServeHTTP(w, req)
		}
		serve() // computes
		serve() // the first hit fills the snapshot's encoding
		if w.status != http.StatusOK || w.header.Get("Content-Length") != strconv.Itoa(w.n) {
			t.Fatalf("n=%d: status %d, Content-Length %q for a %d-byte body", n, w.status, w.header.Get("Content-Length"), w.n)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs, w.n
	}
	smallAllocs, smallBytes, smallBody := hit(2)
	largeAllocs, largeBytes, largeBody := hit(64)
	t.Logf("4 pairs: %.2f allocs, %.0f B per hit (%d-byte reply); 4 096 pairs: %.2f allocs, %.0f B per hit (%d-byte reply)",
		smallAllocs, smallBytes, smallBody, largeAllocs, largeBytes, largeBody)
	if largeAllocs > smallAllocs+0.5 {
		t.Errorf("a hit on the 4 096-pair answer makes %.2f allocations, the 4-pair one %.2f", largeAllocs, smallAllocs)
	}
	// The slack covers size classes that the reply's longer count and
	// Content-Length can tip, far below one pair per hundred.
	if largeBytes > smallBytes+512 {
		t.Errorf("a hit on the 4 096-pair answer allocates %.0f B, the 4-pair one %.0f B", largeBytes, smallBytes)
	}
}

// checkReply pins a query reply's layout: it begins {"skyline":[, the
// array is followed at once by ],"count":, it ends with one newline,
// Content-Length is the body's length, and it is byte for byte what
// encoding/json writes for the reply decoded (dist kept raw, in place).
func checkReply(t *testing.T, label string, header http.Header, body []byte) QueryResponseJSON {
	t.Helper()
	if cl := header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", label, cl, len(body))
	}
	if !bytes.HasPrefix(body, []byte(`{"skyline":[`)) || !bytes.HasSuffix(body, []byte("}\n")) || bytes.Count(body, []byte("\n")) != 1 {
		t.Fatalf("%s: reply %.40q … %.40q does not open with the skyline or end with one newline", label, body, body[max(0, len(body)-40):])
	}
	var arr json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body[len(skylineKey):])).Decode(&arr); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tail := body[len(skylineKey)+len(arr)-1:]; !bytes.HasPrefix(tail, []byte(`],"count":`)) {
		t.Fatalf("%s: the skyline array is followed by %.20q, want ],\"count\":", label, tail)
	}
	var out QueryResponseJSON
	var dist struct {
		Dist json.RawMessage `json:"dist"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := json.Unmarshal(body, &dist); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	reencoded := out
	if dist.Dist != nil {
		reencoded.Dist = dist.Dist
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(reencoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s: reply differs from its encoding/json form:\n got %s\nwant %s", label, body, want.Bytes())
	}
	return out
}

// TestQueryReplyLayout pins the layout of every kind of skyline reply —
// computed, cached, maintained, and a no_cache recompute — on a real
// service (checkReply); components replies keep their own form.
func TestQueryReplyLayout(t *testing.T) {
	svc := newService(t)
	for _, name := range []string{"r1", "r2"} {
		if _, err := svc.Register(name, frontRelation(t, name, 6)); err != nil {
			t.Fatal(err)
		}
	}
	h := NewHandler(svc, bound)
	post := func(target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d (%s)", target, body, rec.Code, rec.Body)
		}
		return rec
	}
	const query = `{"r1":"r1","r2":"r2","k":4}`
	for _, step := range []struct{ mutate, query, source string }{
		{"", query, "computed"},
		{"", query, "cached"},
		{`{"relation":"r1","tuple":{"key":"g","attrs":[0.5,-0]}}`, query, "maintained"},
		{"", query, "maintained"},
		{"", `{"r1":"r1","r2":"r2","k":4,"no_cache":true}`, "computed"},
	} {
		if step.mutate != "" {
			post("/v1/insert", step.mutate)
		}
		rec := post("/v1/query", step.query)
		out := checkReply(t, step.source, rec.Header(), rec.Body.Bytes())
		if out.Source != step.source || out.Count != len(out.Skyline) || out.Count == 0 {
			t.Fatalf("%s reply: source %q, count %d over %d pairs", step.source, out.Source, out.Count, len(out.Skyline))
		}
	}
	rec := post("/v1/query", `{"r1":"r1","r2":"r2","k":4,"components":true}`)
	if !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"candidates":{`)) {
		t.Fatalf("components reply %.40q", rec.Body)
	}
	// A backend's "dist" block (the gateway's) and a computed answer's
	// "stats" follow elapsed_us in the same envelope.
	rec = serve(&stub{}, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)))
	checkReply(t, "with stats and dist", rec.Header(), rec.Body.Bytes())
}

// TestHitRepliesFollowCommits runs hits on a maintained answer while
// commits advance it: every reply's skyline must be a from-scratch
// core.Exec recompute at the versions the reply names — a fill racing a
// commit must never attach one skyline's bytes to another's versions.
func TestHitRepliesFollowCommits(t *testing.T) {
	const n, batch, batches, readers, k = 60, 3, 16, 3, 5
	gen := func(name string, n int, seed int64) *dataset.Relation {
		return datagen.MustGenerate(datagen.Config{Name: name, N: n, Local: 2, Agg: 1, Groups: 3, Dist: datagen.Independent, Seed: seed})
	}
	r1, r2 := gen("r1", n, 1), gen("r2", n, 2)
	inserts := gen("r1", batch*batches, 3).Rows()

	// The answer at every version the commits will move through.
	q := core.Query{R1: r1.Clone(), R2: r2.Clone(), Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: k}
	want := map[[2]uint64][]join.Pair{}
	moves := 0
	for v := 1; v <= batches+1; v++ {
		if v > 1 {
			if _, err := q.R1.AppendBatch(inserts[(v-2)*batch : (v-1)*batch]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := core.Exec(context.Background(), q, core.ExecOptions{Algorithm: core.Naive})
		if err != nil {
			t.Fatal(err)
		}
		at := [2]uint64{uint64(v), 1}
		if added, removed := service.DiffPairs(want[[2]uint64{uint64(v - 1), 1}], res.Skyline); v > 1 && len(added)+len(removed) > 0 {
			moves++
		}
		want[at] = res.Skyline
	}
	if moves < batches/2 {
		t.Fatalf("the schedule moves the answer only %d times in %d commits; the test needs it to move", moves, batches)
	}

	svc := newService(t)
	for _, r := range []*dataset.Relation{r1, r2} {
		if _, err := svc.Register(r.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	h := NewHandler(svc, bound)
	query := fmt.Sprintf(`{"r1":"r1","r2":"r2","k":%d}`, k)
	ask := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)))
		return rec
	}
	ask() // computes the answer; the first commit promotes it to maintained

	var served atomic.Int64
	var stop, failed atomic.Bool
	fail := func(format string, args ...any) {
		if !failed.Swap(true) {
			t.Errorf(format, args...)
		}
	}
	var mu sync.Mutex
	sources, versions := map[string]int{}, map[[2]uint64]bool{}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !failed.Load() {
				rec := ask()
				var out QueryResponseJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
					fail("status %d, %v: %.80s", rec.Code, err, rec.Body)
					return
				}
				exp, ok := want[out.Versions]
				if !ok {
					fail("%s reply at versions %v, which no commit made", out.Source, out.Versions)
					return
				}
				if err := samePairsJSON(out.Skyline, exp); err != nil {
					fail("%s reply at versions %v: %v", out.Source, out.Versions, err)
					return
				}
				mu.Lock()
				sources[out.Source]++
				versions[out.Versions] = true
				mu.Unlock()
				served.Add(1)
			}
		}()
	}
	for b := 0; b < batches && !failed.Load(); b++ {
		res, err := svc.InsertBatch("r1", inserts[b*batch:(b+1)*batch])
		if err != nil {
			fail("batch %d: %v", b, err)
			break
		}
		if res.Version != uint64(b+2) || res.Maintained != 1 {
			fail("batch %d: version %d, %d maintained answers; want version %d and the one answer", b, res.Version, res.Maintained, b+2)
			break
		}
		// Let hits land on this version before the next commit.
		for start := served.Load(); served.Load() < start+2*readers && !failed.Load(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
	t.Logf("replies by source %v over %d versions", sources, len(versions))
	if sources["maintained"] == 0 || len(versions) < batches/2 {
		t.Fatalf("replies by source %v over %d versions: the hits did not follow the commits", sources, len(versions))
	}
}

// samePairsJSON compares decoded pairs with an answer, values bit for bit.
func samePairsJSON(got []PairJSON, want []join.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i, p := range want {
		g := got[i]
		if g.Left != p.Left || g.Right != p.Right || len(g.Attrs) != len(p.Attrs) {
			return fmt.Errorf("pair %d is (%d,%d)/%d values, want (%d,%d)/%d", i, g.Left, g.Right, len(g.Attrs), p.Left, p.Right, len(p.Attrs))
		}
		for j, v := range p.Attrs {
			if math.Float64bits(g.Attrs[j]) != math.Float64bits(v) {
				return fmt.Errorf("pair %d value %d is %v, want %v", i, j, g.Attrs[j], v)
			}
		}
	}
	return nil
}
