package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// from outside the layer: around a request it sends, inside a middleware it
// wrapped a handler in, or around a public function it calls itself.
type span struct {
	// Name is the boundary: "client", "handler", "shard0", "service.Query",
	// "core.Exec", "store.Sync", ...
	Name string `json:"name"`
	// Req is the load generator's id of the request that caused the span
	// ("round.client.index"); spans of one request share it.
	Req string `json:"req"`
	// Parent is the span of the same request that caused this one.
	Parent string `json:"parent,omitempty"`
	// Class is the request's op class ("q:ind.k10", "insert1", "delete4").
	Class string `json:"class,omitempty"`
	// StartUS and EndUS are microseconds since the tracer started.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Bytes is the reply size, where the span saw one.
	Bytes int `json:"bytes,omitempty"`
	// Path is the endpoint a middleware span served.
	Path string `json:"path,omitempty"`
}

func (s span) us() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// verifies holds the /v1/verify request bodies shard middlewares saw, so
	// the same vectors can be replayed against Service.Verify directly.
	verifies []capturedVerify
}

type capturedVerify struct {
	shard string
	body  []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the tracer's microseconds.
func (t *tracer) at(x time.Time) float64 {
	return float64(x.Sub(t.t0)) / float64(time.Microsecond)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// handlerSpans indexes by request id the client-facing handler spans
// recorded since the tracer held from spans.
func (t *tracer) handlerSpans(from int) map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]span)
	for _, s := range t.spans[from:] {
		if (s.Name == "handler" || s.Name == "gateway") && s.Req != "" {
			out[s.Req] = s
		}
	}
	return out
}

// time records fn as a span and returns its duration in microseconds.
func (t *tracer) time(name, parent, req, class string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	s := span{Name: name, Parent: parent, Req: req, Class: class, StartUS: t.at(start), EndUS: t.at(end)}
	if t.on.Load() {
		t.add(s)
	}
	return s.us()
}

// countingWriter counts the reply bytes a handler wrote.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// middleware wraps a handler the benchmark owns in a span recorder. With
// the tracer off it passes straight through, which is what the untraced
// half of the overhead comparison runs.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/v1/verify" {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				t.mu.Lock()
				t.verifies = append(t.verifies, capturedVerify{shard: name, body: body})
				t.mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		parent := "client"
		if name != "handler" && name != "gateway" {
			parent = "gateway" // a shard serves the gateway's scatter
		}
		t.add(span{
			Name: name, Parent: parent, Req: r.Header.Get(requestIDHeader), Path: r.URL.Path,
			StartUS: t.at(start), EndUS: t.at(end), Bytes: cw.n,
		})
	})
}

// takeVerifies returns and clears the captured verification requests.
func (t *tracer) takeVerifies() []capturedVerify {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.verifies
	t.verifies = nil
	return out
}

// write dumps every span as JSON. A shard span carries no request id of
// its own (the gateway's client forwards no headers); it is filed under the
// gateway call whose interval holds it — one client, so one call in flight.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	var calls []span
	for _, s := range t.spans {
		if s.Name == "gateway" || strings.HasPrefix(s.Name, "shard.Gateway.") {
			calls = append(calls, s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req != "" || s.Parent != "gateway" {
			continue
		}
		for _, c := range calls {
			if strings.HasPrefix(s.Name, "twin.") == (c.Name != "gateway") && s.StartUS >= c.StartUS && s.EndUS <= c.EndUS {
				s.Req, s.Class, s.Parent = c.Req, c.Class, c.Name
				break
			}
		}
	}
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// within returns the spans named by pick that lie inside [startUS, endUS]:
// how a shard's spans, which carry no request id (the gateway's client does
// not forward headers), are filed under the one gateway request in flight.
func within(spans []span, startUS, endUS float64, pick func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if s.StartUS >= startUS && s.EndUS <= endUS && pick(s) {
			out = append(out, s)
		}
	}
	return out
}

// unionUS is the length of the union of the spans' intervals: parallel
// shard calls overlap, and a parent's self time is its duration minus the
// part its children cover.
func unionUS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].StartUS < s[j].StartUS })
	total, curStart, curEnd := 0.0, s[0].StartUS, s[0].EndUS
	for _, x := range s[1:] {
		if x.StartUS > curEnd {
			total += curEnd - curStart
			curStart, curEnd = x.StartUS, x.EndUS
		} else if x.EndUS > curEnd {
			curEnd = x.EndUS
		}
	}
	return total + curEnd - curStart
}
