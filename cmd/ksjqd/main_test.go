package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/ksjq"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := ksjq.NewService(ksjq.ServiceConfig{})
	srv := httptest.NewServer(newServer(svc, 30*time.Second))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// relationBody builds a loadable toy relation: two incomparable tuples
// (1,9) and (9,1) on one key. Joining two of these under k=4 (full
// dominance) yields all four combinations in the skyline; inserting (0,0)
// on one side then collapses it to the two pairs built from the new tuple.
func relationBody(name string) map[string]any {
	return map[string]any{"name": name, "local": 2, "agg": 0, "tuples": []map[string]any{
		{"key": "h", "attrs": []float64{1, 9}},
		{"key": "h", "attrs": []float64{9, 1}},
	}}
}

func TestServerEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	// Load two relations.
	for _, name := range []string{"r1", "r2"} {
		resp, out := postJSON(t, srv.URL+"/v1/relations", relationBody(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: status %d (%v)", name, resp.StatusCode, out)
		}
		if out["version"].(float64) != 1 || out["tuples"].(float64) != 2 {
			t.Fatalf("load %s: %v", name, out)
		}
	}

	// Listing shows both.
	resp, err := http.Get(srv.URL + "/v1/relations")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Relations []map[string]any `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Relations) != 2 {
		t.Fatalf("relations listing: %v", listing)
	}

	// First query computes, second hits the cache. k=4 over the joined
	// width 4 is full dominance: all four combinations of the two
	// incomparable tuples per side survive.
	query := map[string]any{"r1": "r1", "r2": "r2", "k": 4, "algorithm": "grouping"}
	resp, out := postJSON(t, srv.URL+"/v1/query", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d (%v)", resp.StatusCode, out)
	}
	if out["source"] != "computed" || out["stats"] == nil {
		t.Errorf("first query: source=%v stats=%v", out["source"], out["stats"])
	}
	if got := out["count"].(float64); got != 4 {
		t.Errorf("first query skyline has %v tuples, want 4", got)
	}
	_, out = postJSON(t, srv.URL+"/v1/query", query)
	if out["source"] != "cached" {
		t.Errorf("second query: source=%v, want cached", out["source"])
	}

	// An insert keeps the cached answer live: the next query is served
	// from the maintained entry at the new version.
	resp, out = postJSON(t, srv.URL+"/v1/insert", map[string]any{
		"relation": "r1",
		"tuple":    map[string]any{"key": "h", "attrs": []float64{0, 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d (%v)", resp.StatusCode, out)
	}
	if out["version"].(float64) != 2 || out["maintained"].(float64) != 1 {
		t.Errorf("insert: %v", out)
	}
	_, out = postJSON(t, srv.URL+"/v1/query", query)
	if out["source"] != "maintained" {
		t.Errorf("post-insert query: source=%v, want maintained", out["source"])
	}
	versions := out["versions"].([]any)
	if versions[0].(float64) != 2 || versions[1].(float64) != 1 {
		t.Errorf("post-insert versions: %v", versions)
	}
	// The dominant insert ((0,0) beats both R1 tuples) reshapes the
	// answer: only its two joined pairs survive full dominance.
	if got := out["count"].(float64); got != 2 {
		t.Errorf("post-insert skyline has %v tuples, want 2", got)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ksjq.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Queries != 3 || stats.Computed != 1 || stats.CacheHits != 1 || stats.MaintainedHits != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.Inserts != 1 || len(stats.Relations) != 2 {
		t.Errorf("stats relations/inserts: %+v", stats)
	}

	// Health.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestServerCSVLoad(t *testing.T) {
	srv := newTestServer(t)
	csv := "key,band,a0,a1\nBOM,2.5,1,9\nBOM,4,3,3\n"
	resp, err := http.Post(srv.URL+"/v1/relations?format=csv&name=legs&local=2&band=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["tuples"].(float64) != 2 {
		t.Fatalf("CSV load: status %d, %v", resp.StatusCode, out)
	}
	// A band self-join over the loaded relation works end to end.
	_, out = postJSON(t, srv.URL+"/v1/query", map[string]any{
		"r1": "legs", "r2": "legs", "k": 3, "join": "lt",
	})
	if out["error"] != nil {
		t.Fatalf("band query: %v", out["error"])
	}
	// A present-but-malformed or negative numeric parameter is refused, as
	// the JSON form's negative window is: read as 0 it would register an
	// unwindowed relation whose rows never expire. The name stays free.
	for _, params := range []string{
		"local=2&agg=1&window_ms=-5", "local=2&agg=1&window_ms=5s",
		"local=2x&band=1", "local=2&agg=-1", "local=2&agg=one",
	} {
		resp, err := http.Post(srv.URL+"/v1/relations?format=csv&name=bad&"+params, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("CSV load with %s: status %d, want 400", params, resp.StatusCode)
		}
	}
	resp, err = http.Post(srv.URL+"/v1/relations?format=csv&name=bad&local=2&band=1&window_ms=60000", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("CSV load with a well-formed window after the refused ones: status %d, want 200", resp.StatusCode)
	}
}

// TestServerBatchInsert covers the batch wire form of /v1/insert: one
// group commit for a tuple list, responses carrying the batch shape, and
// the maintained answer staying identical to a forced recompute.
func TestServerBatchInsert(t *testing.T) {
	srv := newTestServer(t)
	for _, name := range []string{"r1", "r2"} {
		postJSON(t, srv.URL+"/v1/relations", relationBody(name))
	}
	query := map[string]any{"r1": "r1", "r2": "r2", "k": 4, "algorithm": "grouping"}
	postJSON(t, srv.URL+"/v1/query", query) // warm an entry to maintain

	resp, out := postJSON(t, srv.URL+"/v1/insert", map[string]any{
		"relation": "r1",
		"tuples": []map[string]any{
			{"key": "h", "attrs": []float64{2, 8}},
			{"key": "h", "attrs": []float64{8, 2}},
			{"key": "h", "attrs": []float64{0, 0}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch insert: status %d (%v)", resp.StatusCode, out)
	}
	// One version bump for the whole batch, ids from the append point.
	if out["id"].(float64) != 2 || out["count"].(float64) != 3 || out["version"].(float64) != 2 {
		t.Errorf("batch insert response: %v", out)
	}
	if out["maintained"].(float64) != 1 {
		t.Errorf("batch insert maintained %v entries, want 1", out["maintained"])
	}

	_, maintained := postJSON(t, srv.URL+"/v1/query", query)
	if maintained["source"] != "maintained" {
		t.Fatalf("post-batch query source = %v, want maintained", maintained["source"])
	}
	fresh := map[string]any{"r1": "r1", "r2": "r2", "k": 4, "algorithm": "grouping", "no_cache": true}
	_, recomputed := postJSON(t, srv.URL+"/v1/query", fresh)
	if fmt.Sprint(maintained["skyline"]) != fmt.Sprint(recomputed["skyline"]) {
		t.Errorf("maintained answer diverges from recompute:\n%v\n%v",
			maintained["skyline"], recomputed["skyline"])
	}

	// Mixing the single and batch forms is ambiguous — rejected.
	resp, out = postJSON(t, srv.URL+"/v1/insert", map[string]any{
		"relation": "r1",
		"tuple":    map[string]any{"key": "h", "attrs": []float64{1, 1}},
		"tuples":   []map[string]any{{"key": "h", "attrs": []float64{1, 1}}},
	})
	if resp.StatusCode != http.StatusBadRequest || out["error"] == nil {
		t.Errorf("mixed forms: status %d (%v), want 400", resp.StatusCode, out)
	}
	// An empty batch is a client error, not a silent no-op.
	resp, _ = postJSON(t, srv.URL+"/v1/insert", map[string]any{"relation": "r1", "tuples": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestServerErrors(t *testing.T) {
	srv := newTestServer(t)
	postJSON(t, srv.URL+"/v1/relations", relationBody("r1"))

	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown relation", "/v1/query", map[string]any{"r1": "r1", "r2": "ghost", "k": 3}, http.StatusNotFound},
		{"bad k", "/v1/query", map[string]any{"r1": "r1", "r2": "r1", "k": 99}, http.StatusBadRequest},
		{"bad join", "/v1/query", map[string]any{"r1": "r1", "r2": "r1", "k": 4, "join": "outer"}, http.StatusBadRequest},
		{"duplicate relation", "/v1/relations", relationBody("r1"), http.StatusConflict},
		{"insert unknown", "/v1/insert", map[string]any{"relation": "ghost", "tuple": map[string]any{"attrs": []float64{1, 2}}}, http.StatusNotFound},
		{"insert bad schema", "/v1/insert", map[string]any{"relation": "r1", "tuple": map[string]any{"attrs": []float64{1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, out := postJSON(t, srv.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%v)", c.name, resp.StatusCode, c.status, out)
		}
		if out["error"] == nil {
			t.Errorf("%s: response carries no error field: %v", c.name, out)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	// Non-finite insert payloads never reach a relation: NaN/Infinity are
	// not representable in JSON (decode rejects them), and an overflowing
	// literal like 1e999 fails float64 decoding — both are 400s, and the
	// dataset layer's finite-attribute check backstops any path that might
	// bypass the wire decode.
	for name, body := range map[string]string{
		"NaN attr":      `{"relation":"r1","tuple":{"attrs":[NaN,1]}}`,
		"overflow attr": `{"relation":"r1","tuple":{"attrs":[1e999,1]}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s insert: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d", resp.StatusCode)
	}
}

func TestLoadFlagParsing(t *testing.T) {
	var l loadFlags
	for _, good := range []string{"r1,data.csv,3", "r2,data.csv,3,2", "r3,data.csv,3,2,band"} {
		if err := l.Set(good); err != nil {
			t.Errorf("Set(%q): %v", good, err)
		}
	}
	if len(l) != 3 || l[2].band != true || l[1].agg != 2 || l[0].local != 3 {
		t.Errorf("parsed specs: %+v", l)
	}
	for _, bad := range []string{"r1", "r1,data.csv", "r1,data.csv,x", "r1,data.csv,3,y", "r1,data.csv,3,2,nope", "a,b,1,2,band,extra"} {
		if err := l.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestTupleJSONRoundTrip(t *testing.T) {
	in := httpapi.TupleJSON{Key: "A", Key2: "B", Band: 1.5, Attrs: []float64{1, 2}}
	tup := in.Tuple()
	if tup.Key != "A" || tup.Key2 != "B" || tup.Band != 1.5 || fmt.Sprint(tup.Attrs) != "[1 2]" {
		t.Errorf("tuple() = %+v", tup)
	}
}

// TestServerWatch drives the NDJSON watch stream end to end: subscribe,
// read the snapshot line, insert a dominating tuple, read the delta line,
// then disconnect.
func TestServerWatch(t *testing.T) {
	srv := newTestServer(t)
	for _, name := range []string{"r1", "r2"} {
		resp, _ := postJSON(t, srv.URL+"/v1/relations", relationBody(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loading %s: status %d", name, resp.StatusCode)
		}
	}

	body, err := json.Marshal(map[string]any{"r1": "r1", "r2": "r2", "k": 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}

	type eventJSON struct {
		Seq      uint64             `json:"seq"`
		Added    []httpapi.PairJSON `json:"added"`
		Removed  []httpapi.PairJSON `json:"removed"`
		Versions [2]uint64          `json:"versions"`
	}
	dec := json.NewDecoder(resp.Body)
	lines := make(chan eventJSON, 8)
	go func() {
		defer close(lines)
		for {
			var ev eventJSON
			if err := dec.Decode(&ev); err != nil {
				return
			}
			lines <- ev
		}
	}()
	readEvent := func(label string) eventJSON {
		t.Helper()
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatalf("%s: watch stream ended early", label)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timed out waiting for watch event", label)
		}
		panic("unreachable")
	}

	snapshot := readEvent("snapshot")
	if snapshot.Seq != 0 || len(snapshot.Added) != 4 || len(snapshot.Removed) != 0 {
		t.Fatalf("snapshot = seq %d, %d added, %d removed; want 0, 4, 0",
			snapshot.Seq, len(snapshot.Added), len(snapshot.Removed))
	}

	// A dominating insert displaces the old answer: the delta removes the
	// four old pairs and adds the new tuple's two.
	insResp, _ := postJSON(t, srv.URL+"/v1/insert", map[string]any{
		"relation": "r1", "tuple": map[string]any{"key": "h", "attrs": []float64{0, 0}},
	})
	if insResp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", insResp.StatusCode)
	}
	delta := readEvent("delta")
	if delta.Seq != 1 || len(delta.Added) != 2 || len(delta.Removed) != 4 {
		t.Fatalf("delta = seq %d, %d added, %d removed; want 1, 2, 4",
			delta.Seq, len(delta.Added), len(delta.Removed))
	}
	if delta.Versions != [2]uint64{2, 1} {
		t.Fatalf("delta versions %v, want [2 1]", delta.Versions)
	}
}

// TestServerWatchRejectsBadRequest pins the error mapping on the watch
// endpoint: an unmaintainable aggregator is a 400, an unknown relation a
// 404 — before any streaming starts.
func TestServerWatchRejectsBadRequest(t *testing.T) {
	srv := newTestServer(t)
	resp, _ := postJSON(t, srv.URL+"/v1/relations", relationBody("r1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loading r1: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/watch", map[string]any{"r1": "r1", "r2": "nope", "k": 4})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/watch", map[string]any{
		"r1": "r1", "r2": "r1", "k": 4, "agg": "max", "algorithm": "naive",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("max aggregator: status %d, want 400", resp.StatusCode)
	}
}

// TestServerDelete covers both wire forms of /v1/delete: single-id and
// batch, the maintained answer staying identical to a forced recompute,
// and the client-error surface (mixed forms, bad ids, delete-all).
func TestServerDelete(t *testing.T) {
	srv := newTestServer(t)
	for _, name := range []string{"r1", "r2"} {
		postJSON(t, srv.URL+"/v1/relations", relationBody(name))
	}
	query := map[string]any{"r1": "r1", "r2": "r2", "k": 4, "algorithm": "grouping"}
	postJSON(t, srv.URL+"/v1/query", query) // warm an entry to maintain

	// Deleting r1's (1,9) leaves only pairs built from (9,1).
	resp, out := postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r1", "id": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%v)", resp.StatusCode, out)
	}
	if out["count"].(float64) != 1 || out["version"].(float64) != 2 {
		t.Errorf("delete response: %v", out)
	}
	if out["maintained"].(float64) != 1 {
		t.Errorf("delete maintained %v entries, want 1", out["maintained"])
	}
	_, maintained := postJSON(t, srv.URL+"/v1/query", query)
	if maintained["source"] != "maintained" {
		t.Fatalf("post-delete query source = %v, want maintained", maintained["source"])
	}
	if n := maintained["count"].(float64); n != 2 {
		t.Fatalf("post-delete skyline has %v pairs, want 2", n)
	}
	fresh := map[string]any{"r1": "r1", "r2": "r2", "k": 4, "algorithm": "grouping", "no_cache": true}
	_, recomputed := postJSON(t, srv.URL+"/v1/query", fresh)
	if fmt.Sprint(maintained["skyline"]) != fmt.Sprint(recomputed["skyline"]) {
		t.Errorf("maintained answer diverges from recompute:\n%v\n%v",
			maintained["skyline"], recomputed["skyline"])
	}

	// Batch form: grow the relation, then delete two rows as one commit.
	postJSON(t, srv.URL+"/v1/insert", map[string]any{
		"relation": "r1",
		"tuples": []map[string]any{
			{"key": "h", "attrs": []float64{2, 8}},
			{"key": "h", "attrs": []float64{8, 2}},
		},
	})
	resp, out = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r1", "ids": []int{0, 2}})
	if resp.StatusCode != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("batch delete: status %d (%v)", resp.StatusCode, out)
	}
	_, maintained = postJSON(t, srv.URL+"/v1/query", query)
	_, recomputed = postJSON(t, srv.URL+"/v1/query", fresh)
	if fmt.Sprint(maintained["skyline"]) != fmt.Sprint(recomputed["skyline"]) {
		t.Errorf("post-batch maintained answer diverges from recompute:\n%v\n%v",
			maintained["skyline"], recomputed["skyline"])
	}

	// Client errors: mixed forms, empty batch, out-of-range, delete-all,
	// unknown relation.
	resp, _ = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r1", "id": 0, "ids": []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed forms: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r1", "ids": []int{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r1", "id": 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out of range: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "r2", "ids": []int{0, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("delete-all: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/delete", map[string]any{"relation": "nope", "id": 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown relation: status %d, want 404", resp.StatusCode)
	}
}

// TestServerWindow registers sliding-window relations over both wire
// forms, checks the window surfaces in the listing, and lets the real
// sweeper age rows out down to the retained newest row.
func TestServerWindow(t *testing.T) {
	svc := ksjq.NewService(ksjq.ServiceConfig{SweepInterval: 10 * time.Millisecond})
	srv := httptest.NewServer(newServer(svc, 30*time.Second))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})

	body := relationBody("r1")
	body["window_ms"] = 40
	if resp, out := postJSON(t, srv.URL+"/v1/relations", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed load: status %d (%v)", resp.StatusCode, out)
	}
	csv := "key,a0,a1\nh,1,9\nh,9,1\n"
	resp, err := http.Post(srv.URL+"/v1/relations?format=csv&name=legs&local=2&window_ms=60000", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed CSV load: status %d", resp.StatusCode)
	}

	// The listing carries each relation's window.
	listResp, err := http.Get(srv.URL + "/v1/relations")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Relations []struct {
			Name     string `json:"name"`
			WindowMS int64  `json:"window_ms"`
		} `json:"relations"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	windows := map[string]int64{}
	for _, r := range listing.Relations {
		windows[r.Name] = r.WindowMS
	}
	if windows["r1"] != 40 || windows["legs"] != 60000 {
		t.Fatalf("listed windows = %v, want r1:40 legs:60000", windows)
	}

	// r1's 40ms window ages both seed rows past their deadline; the
	// sweeper keeps the newest so the relation never empties.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := svc.RelationInfo("r1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Tuples == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper left %d rows after 5s", info.Tuples)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// legs' one-minute window expires nothing in this test's lifetime.
	if info, err := svc.RelationInfo("legs"); err != nil || info.Tuples != 2 {
		t.Fatalf("legs: %v tuples (err %v), want 2 intact", info.Tuples, err)
	}

	// A negative window is rejected at registration.
	bad := relationBody("r3")
	bad["window_ms"] = -5
	if resp, _ := postJSON(t, srv.URL+"/v1/relations", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative window: status %d, want 400", resp.StatusCode)
	}
}
