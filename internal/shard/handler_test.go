package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// TestHandlerRejectsLikeSingleNode is the wire-parity script: one ordered
// request list posted to the gateway handler over a 2-shard cluster and to
// the single-node handler it shares its code with. Every row must get the
// same status from both (and the one written here), and every 200 the same
// body, modulo what only one side reports: the gateway's "dist" block, the
// engine "stats" of a computed answer, and "elapsed_us". Mutations come
// before the first query: a single node counts the answers it maintained
// in its insert/delete replies, a gateway leaves those counters zero.
//
// Both sides now run the same decode, clamp and request check, which is
// what the rows pin: before they did, the gateway read `local=3x` as 3
// (Sscanf) where the single node read 0 (Atoi), registered a relation
// with zero tuples on zero shards, and — its check running after its
// cache lookup — answered a malformed query 200 once the well-formed one
// was cached.
func TestHandlerRejectsLikeSingleNode(t *testing.T) {
	c := newCluster(t, 2)
	gateway := httptest.NewServer(NewHandler(c.gw, 0))
	defer gateway.Close()
	single := httptest.NewServer(httpapi.NewHandler(newMirror(t), 0))
	defer single.Close()

	rng := rand.New(rand.NewSource(15))
	tuples := func(n int) string {
		var rows []string
		for _, tp := range genTuples(rng, n, 2, 1, 4) {
			b, err := json.Marshal(httpapi.FromTuple(tp))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, string(b))
		}
		return "[" + strings.Join(rows, ",") + "]"
	}
	csvRows := func(n int) string {
		var b strings.Builder
		b.WriteString("key,a0,a1,a2\n")
		for _, tp := range genTuples(rng, n, 2, 1, 4) {
			fmt.Fprintf(&b, "%s,%v,%v,%v\n", tp.Key, tp.Attrs[0], tp.Attrs[1], tp.Attrs[2])
		}
		return b.String()
	}
	const csv = "key,a0,a1,a2\nA,1,2,3\nB,3,2,1\n"
	const (
		ok       = http.StatusOK
		bad      = http.StatusBadRequest
		notFound = http.StatusNotFound
		conflict = http.StatusConflict
		method   = http.StatusMethodNotAllowed
	)
	post, get, del := http.MethodPost, http.MethodGet, http.MethodDelete

	script := []struct {
		name, method, path, body string
		want                     int
	}{
		// Registration, JSON and CSV.
		{"register json", post, "/v1/relations", `{"name":"r1","local":2,"agg":1,"tuples":` + tuples(24) + `}`, ok},
		{"register csv", post, "/v1/relations?format=csv&name=r2&local=2&agg=1", csvRows(24), ok},
		{"register duplicate", post, "/v1/relations", `{"name":"r1","local":2,"agg":1,"tuples":` + tuples(2) + `}`, conflict},
		{"register empty name", post, "/v1/relations", `{"name":"","local":2,"agg":1,"tuples":` + tuples(2) + `}`, bad},
		{"register bad width", post, "/v1/relations", `{"name":"w","local":2,"agg":1,"tuples":[{"key":"a","attrs":[1,2]}]}`, bad},
		{"register bad schema", post, "/v1/relations", `{"name":"w","local":0,"agg":0,"tuples":[{"key":"a","attrs":[]}]}`, bad},
		{"register zero tuples", post, "/v1/relations", `{"name":"e","local":2,"agg":1,"tuples":[]}`, bad},
		{"the refused name is still free", post, "/v1/relations", `{"name":"e","local":2,"agg":1,"tuples":` + tuples(3) + `}`, ok},
		{"register truncated json", post, "/v1/relations", `{"name":"t","local":2`, bad},
		{"register wrong method", http.MethodPut, "/v1/relations", ``, method},
		{"well-formed csv", post, "/v1/relations?format=csv&name=ok&local=3", csv, ok},
		{"csv header only", post, "/v1/relations?format=csv&name=h&local=3", "key,a0,a1,a2\n", bad},
		{"trailing garbage in local", post, "/v1/relations?format=csv&name=a&local=3x", csv, bad},
		{"non-numeric local", post, "/v1/relations?format=csv&name=b&local=abc", csv, bad},
		{"negative local", post, "/v1/relations?format=csv&name=c&local=-3", csv, bad},
		{"trailing garbage in agg", post, "/v1/relations?format=csv&name=d&local=2&agg=1x", csv, bad},
		{"malformed window", post, "/v1/relations?format=csv&name=f&local=3&window_ms=5x", csv, bad},
		{"negative window", post, "/v1/relations?format=csv&name=f&local=3&window_ms=-5", csv, bad},

		// Mutations, every accepted and rejected form.
		{"insert one", post, "/v1/insert", `{"relation":"ok","tuple":{"key":"A","attrs":[4,5,6]}}`, ok},
		{"insert batch", post, "/v1/insert", `{"relation":"r1","tuples":` + tuples(5) + `}`, ok},
		{"insert: both forms", post, "/v1/insert", `{"relation":"ok","tuple":{"key":"A","attrs":[1,2,3]},"tuples":[{"key":"A","attrs":[1,2,3]}]}`, bad},
		{"insert: empty batch", post, "/v1/insert", `{"relation":"ok"}`, bad},
		{"insert: bad width", post, "/v1/insert", `{"relation":"ok","tuple":{"key":"A","attrs":[1,2]}}`, bad},
		{"insert: unknown relation", post, "/v1/insert", `{"relation":"nope","tuple":{"key":"A","attrs":[1,2,3]}}`, notFound},
		{"insert: truncated json", post, "/v1/insert", `{"relation":"ok","tuple":`, bad},
		{"insert: wrong method", get, "/v1/insert", ``, method},
		{"delete one", post, "/v1/delete", `{"relation":"ok","id":0}`, ok},
		{"delete batch", post, "/v1/delete", `{"relation":"r1","ids":[27,3,11]}`, ok},
		{"delete: both forms", post, "/v1/delete", `{"relation":"ok","id":0,"ids":[1]}`, bad},
		{"delete: empty batch", post, "/v1/delete", `{"relation":"ok"}`, bad},
		{"delete: out of range", post, "/v1/delete", `{"relation":"ok","ids":[7]}`, bad},
		{"delete: negative", post, "/v1/delete", `{"relation":"ok","id":-1}`, bad},
		{"delete: duplicate", post, "/v1/delete", `{"relation":"r1","ids":[2,2]}`, bad},
		{"delete: all rows", post, "/v1/delete", `{"relation":"ok","ids":[0,1]}`, bad},
		{"delete: unknown relation", post, "/v1/delete", `{"relation":"nope","id":0}`, notFound},
		{"delete: truncated json", post, "/v1/delete", `{"relation":"ok","ids":[`, bad},
		{"delete: wrong method", get, "/v1/delete", ``, method},

		// Queries. The malformed ones run cold, then again once the
		// well-formed query's answer stands: accept/reject must not depend
		// on cache state.
		{"cold: unknown algorithm", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"algorithm":"nope"}`, bad},
		{"cold: naive with workers", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"algorithm":"naive","workers":2}`, bad},
		{"query", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4}`, ok},
		{"query again", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4}`, ok},
		{"query, compact form", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"components":true}`, ok},
		{"warm: unknown algorithm", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"algorithm":"nope"}`, bad},
		{"warm: naive with workers", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"algorithm":"naive","workers":2}`, bad},
		{"warm: grouping with workers", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"algorithm":"grouping","workers":2}`, ok},
		{"query k=5, explicit spellings", post, "/v1/query", `{"r1":"r1","r2":"r2","k":5,"join":"eq","agg":"sum","algorithm":"grouping","no_cache":true}`, ok},
		{"query max needs naive", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"agg":"max","algorithm":"grouping"}`, bad},
		{"query max, naive", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"agg":"max","algorithm":"naive"}`, ok},
		{"query max, auto runs naive", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"agg":"max","no_cache":true}`, ok},
		{"warm: max needs naive", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"agg":"max","algorithm":"grouping"}`, bad},
		{"query k too small", post, "/v1/query", `{"r1":"r1","r2":"r2","k":3}`, bad},
		{"query k too large", post, "/v1/query", `{"r1":"r1","r2":"r2","k":6}`, bad},
		{"query aggregate counts differ", post, "/v1/query", `{"r1":"r1","r2":"ok","k":5}`, bad},
		{"query unknown relation", post, "/v1/query", `{"r1":"r1","r2":"nope","k":4}`, notFound},
		{"query bad join", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"join":"sideways"}`, bad},
		{"query bad agg", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4,"agg":"median"}`, bad},
		{"query wrong method", get, "/v1/query", ``, method},
		{"query truncated json", post, "/v1/query", `{"r1":"r1","r2":`, bad},
		{"watch bad k", post, "/v1/watch", `{"r1":"r1","r2":"r2","k":99}`, bad},
		{"watch max", post, "/v1/watch", `{"r1":"r1","r2":"r2","k":4,"agg":"max","algorithm":"naive"}`, bad},
		{"watch unknown algorithm", post, "/v1/watch", `{"r1":"r1","r2":"r2","k":4,"algorithm":"nope"}`, bad},
		{"watch unknown relation", post, "/v1/watch", `{"r1":"nope","r2":"r2","k":4}`, notFound},
		{"watch wrong method", get, "/v1/watch", ``, method},

		// Unregistration.
		{"unregister without name", del, "/v1/relations", ``, bad},
		{"unregister unknown", del, "/v1/relations?name=nope", ``, notFound},
		{"unregister", del, "/v1/relations?name=r2", ``, ok},
		{"query after unregister", post, "/v1/query", `{"r1":"r1","r2":"r2","k":4}`, notFound},
		{"healthz", get, "/healthz", ``, ok},
	}

	// An accepted watch streams until the client goes away; the timeout
	// turns one the script expected to be refused into a failure, not a hang.
	client := &http.Client{Timeout: 5 * time.Second}
	do := func(base, method, path, body string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: body is not a JSON object: %q", method, path, raw)
		}
		for _, key := range []string{"dist", "stats", "elapsed_us"} {
			delete(decoded, key)
		}
		return resp.StatusCode, decoded
	}
	nonEmpty := false
	for _, row := range script {
		gs, gb := do(gateway.URL, row.method, row.path, row.body)
		ss, sb := do(single.URL, row.method, row.path, row.body)
		if gs != ss || gs != row.want {
			t.Errorf("%s: gateway %d (%v), single node %d (%v), want %d", row.name, gs, gb["error"], ss, sb["error"], row.want)
			continue
		}
		if gs == ok && !reflect.DeepEqual(gb, sb) {
			t.Errorf("%s: bodies differ\n gateway: %v\n  single: %v", row.name, gb, sb)
		}
		if n, _ := gb["count"].(float64); n > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		t.Error("every answer was empty; the body comparison is vacuous")
	}
}
