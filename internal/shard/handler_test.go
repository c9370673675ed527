package shard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
)

// TestHandlerRejectsLikeSingleNode posts the same requests to the gateway
// handler and to the single-node handler it re-serves: a malformed request
// must be rejected by both, a well-formed one accepted by both. Both parse
// with the same exported httpapi helpers; before they did, the gateway
// read `local=3x` as 3 (Sscanf) where the single node read 0 (Atoi).
func TestHandlerRejectsLikeSingleNode(t *testing.T) {
	c := newCluster(t, 2)
	gateway := httptest.NewServer(NewHandler(c.gw, 0))
	defer gateway.Close()
	single := httptest.NewServer(httpapi.NewHandler(newMirror(t), 0))
	defer single.Close()

	const csv = "key,a0,a1,a2\nA,1,2,3\nB,3,2,1\n"
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"well-formed csv", "/v1/relations?format=csv&name=ok&local=3", csv, http.StatusOK},
		{"trailing garbage in local", "/v1/relations?format=csv&name=a&local=3x", csv, http.StatusBadRequest},
		{"non-numeric local", "/v1/relations?format=csv&name=b&local=abc", csv, http.StatusBadRequest},
		{"negative local", "/v1/relations?format=csv&name=c&local=-3", csv, http.StatusBadRequest},
		{"trailing garbage in agg", "/v1/relations?format=csv&name=d&local=2&agg=1x", csv, http.StatusBadRequest},
		{"malformed window reads as none", "/v1/relations?format=csv&name=e&local=3&window_ms=5x", csv, http.StatusOK},
		{"insert: both forms", "/v1/insert", `{"relation":"ok","tuple":{"key":"A","attrs":[1,2,3]},"tuples":[{"key":"A","attrs":[1,2,3]}]}`, http.StatusBadRequest},
		{"insert: empty batch", "/v1/insert", `{"relation":"ok"}`, http.StatusBadRequest},
		{"delete: both forms", "/v1/delete", `{"relation":"ok","id":0,"ids":[1]}`, http.StatusBadRequest},
		{"delete: out of range", "/v1/delete", `{"relation":"ok","ids":[7]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		for _, srv := range []struct {
			kind string
			url  string
		}{{"gateway", gateway.URL}, {"single node", single.URL}} {
			resp, err := http.Post(srv.url+tc.path, "text/plain", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s on %s: status %d, want %d", tc.name, srv.kind, resp.StatusCode, tc.want)
			}
		}
	}
}
