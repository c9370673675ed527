package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// ErrShardDown marks a shard the gateway could not reach (connection
// failure after the retry, or a 5xx from the shard). The wrapping
// DownError names the shard; the gateway's HTTP surface maps it to 503.
var ErrShardDown = errors.New("shard: shard down")

// DownError is ErrShardDown with the failing shard named.
type DownError struct {
	Addr string
	Err  error
}

func (e *DownError) Error() string {
	return fmt.Sprintf("shard %s down: %v", e.Addr, e.Err)
}

// Unwrap lets errors.Is see both the sentinel and the transport cause.
func (e *DownError) Unwrap() []error { return []error{ErrShardDown, e.Err} }

// APIError is a non-2xx shard response that is the client's fault, not
// the shard's (4xx): the gateway passes the status and message through.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string { return e.Msg }

// Is maps 400s onto service.ErrBadRequest and 404s onto
// service.ErrUnknownRelation so gateway-internal callers can classify
// passthrough errors the same way they classify local ones.
func (e *APIError) Is(target error) bool {
	switch target {
	case service.ErrBadRequest:
		return e.Status == http.StatusBadRequest
	case service.ErrUnknownRelation:
		return e.Status == http.StatusNotFound
	}
	return false
}

// client speaks the httpapi wire surface against one shard process over
// a keep-alive connection pool. Every call gets a per-leg deadline
// derived from the operator bound; read-only calls are retried once on
// transient connection errors (mutations are not — they are not
// idempotent, and a half-applied batch must surface, not silently
// double-apply).
type client struct {
	addr       string // host:port or full http://... base
	base       string
	hc         *http.Client
	maxTimeout time.Duration
}

func newClient(addr string, hc *http.Client, maxTimeout time.Duration) *client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &client{addr: addr, base: strings.TrimRight(base, "/"), hc: hc, maxTimeout: maxTimeout}
}

// do runs one JSON call. in may be nil (GET/DELETE); out may be nil.
func (c *client) do(ctx context.Context, method, path string, in, out any, retry bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	err := c.attempt(ctx, method, path, body, out)
	if err != nil && retry && errors.Is(err, ErrShardDown) && ctx.Err() == nil {
		err = c.attempt(ctx, method, path, body, out)
	}
	return err
}

func (c *client) attempt(parent context.Context, method, path string, body []byte, out any) error {
	ctx := parent
	if c.maxTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, c.maxTimeout)
		defer cancel()
	}
	// down blames the shard, unless the caller's own deadline or
	// cancellation ended the call: that is no shard's fault.
	down := func(err error) error {
		if perr := parent.Err(); perr != nil {
			return perr
		}
		return &DownError{Addr: c.addr, Err: err}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// A leg that outlived its own bound reads as such.
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return down(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		if resp.StatusCode/100 == 4 {
			return &APIError{Status: resp.StatusCode, Msg: msg}
		}
		return down(fmt.Errorf("status %d: %s", resp.StatusCode, msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return down(fmt.Errorf("decoding response: %w", err))
	}
	return nil
}

func (c *client) health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

func (c *client) register(ctx context.Context, req httpapi.RegisterJSON) (httpapi.RegisterResponseJSON, error) {
	var out httpapi.RegisterResponseJSON
	err := c.do(ctx, http.MethodPost, "/v1/relations", req, &out, false)
	return out, err
}

func (c *client) unregister(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/relations?name="+url.QueryEscape(name), nil, nil, false)
}

func (c *client) query(ctx context.Context, req httpapi.QueryJSON) (httpapi.QueryResponseJSON, error) {
	var out httpapi.QueryResponseJSON
	err := c.do(ctx, http.MethodPost, "/v1/query", req, &out, true)
	return out, err
}

func (c *client) verify(ctx context.Context, req httpapi.VerifyJSON) (httpapi.VerifyResponseJSON, error) {
	var out httpapi.VerifyResponseJSON
	err := c.do(ctx, http.MethodPost, "/v1/verify", req, &out, true)
	return out, err
}

func (c *client) insert(ctx context.Context, req httpapi.InsertJSON) (httpapi.InsertResponseJSON, error) {
	var out httpapi.InsertResponseJSON
	err := c.do(ctx, http.MethodPost, "/v1/insert", req, &out, false)
	return out, err
}

func (c *client) delete(ctx context.Context, req httpapi.DeleteJSON) (httpapi.DeleteResponseJSON, error) {
	var out httpapi.DeleteResponseJSON
	err := c.do(ctx, http.MethodPost, "/v1/delete", req, &out, false)
	return out, err
}

func (c *client) stats(ctx context.Context) (service.Stats, error) {
	var out service.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out, true)
	return out, err
}
