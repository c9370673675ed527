package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/bench/workload"
	"repro/internal/dataset"
	"repro/internal/httpapi"
)

// conn is one client connection: its own transport capped at a single
// keep-alive connection, so "at most 2 connections" is a property of the
// load generator and not of the pool's mood.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string, timeout time.Duration) *conn {
	return &conn{
		base: base,
		hc: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

// reset drops the kept-alive connection (the server it led to was killed).
func (c *conn) reset() { c.hc.CloseIdleConnections() }

// requestIDHeader carries the load generator's id for a request; the traced
// run's middleware files its spans under it.
const requestIDHeader = "X-Bench-Request"

// post sends one JSON body and reads the whole reply. The returned bytes
// are the connection's buffer: valid until its next call.
func (c *conn) post(path string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// encodeOp renders a schedule op as its endpoint and wire body.
func encodeOp(op workload.Op) (path string, body []byte) {
	var v any
	switch op.Kind {
	case workload.Query:
		path = "/v1/query"
		v = httpapi.QueryJSON{R1: op.R1, R2: op.R2, K: op.K, Algorithm: "auto", NoCache: op.NoCache}
	case workload.Insert:
		path = "/v1/insert"
		in := httpapi.InsertJSON{Relation: op.Relation}
		if len(op.Tuples) == 1 {
			t := httpapi.FromTuple(op.Tuples[0])
			in.Tuple = &t
		} else {
			in.Tuples = wireTuples(op.Tuples)
		}
		v = in
	case workload.Delete:
		path = "/v1/delete"
		v = httpapi.DeleteJSON{Relation: op.Relation, IDs: op.IDs}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of finite floats always marshal
	}
	return path, body
}

func wireTuples(ts []dataset.Tuple) []httpapi.TupleJSON {
	out := make([]httpapi.TupleJSON, len(ts))
	for i, t := range ts {
		out[i] = httpapi.FromTuple(t)
	}
	return out
}

// registerBody renders one dataset as a POST /v1/relations body.
func registerBody(name string, rows []dataset.Tuple) []byte {
	body, err := json.Marshal(httpapi.RegisterJSON{
		Name: name, Local: workload.Local, Agg: workload.Agg, Tuples: wireTuples(rows),
	})
	if err != nil {
		panic(err)
	}
	return body
}

// queryEnvelope is a query reply without its skyline.
type queryEnvelope struct {
	Count    int       `json:"count"`
	Source   string    `json:"source"`
	Versions [2]uint64 `json:"versions"`
}

// countKey opens the envelope fields that follow the skyline array in every
// query reply.
var countKey = []byte(`],"count":`)

// parseEnvelope reads count, source and versions. Replies put them after
// the skyline, so the common case decodes only the tail — a 1 MB answer
// costs the load generator microseconds, not the ~10 ms a full decode takes
// on the CPUs it shares with the servers. A reply laid out differently
// falls back to the full decode.
func parseEnvelope(body []byte) (queryEnvelope, error) {
	var env queryEnvelope
	if i := bytes.LastIndex(body, countKey); i >= 0 {
		tail := append([]byte(`{`), body[i+2:]...)
		if json.Unmarshal(tail, &env) == nil {
			return env, nil
		}
	}
	err := json.Unmarshal(body, &env)
	return env, err
}

// parseSkyline decodes a query reply in full.
func parseSkyline(body []byte) (httpapi.QueryResponseJSON, error) {
	var out httpapi.QueryResponseJSON
	err := json.Unmarshal(body, &out)
	return out, err
}

// mutationReply covers both /v1/insert and /v1/delete acknowledgements.
type mutationReply struct {
	Count   int    `json:"count"`
	Version uint64 `json:"version"`
}

// apiError extracts the {"error": ...} message of a non-2xx reply.
func apiError(status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &e) // a body that is not JSON still gets its status reported
	return fmt.Errorf("status %d: %s", status, e.Error)
}
