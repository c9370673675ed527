package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/httpapi"
)

// handler re-serves the ksjqd wire surface cluster-wide: the same
// endpoints and JSON shapes as a single shard (internal/httpapi), backed
// by the Gateway's scatter-gather instead of a local service. Clients
// cannot tell a gateway from one big ksjqd — except for /v1/stats, which
// grows the cluster breakdown, GET /v1/shards, and the two deliberate
// gaps: sliding windows (shard-side expiry would renumber rows behind
// the gateway's placement, so window_ms is rejected) and a shard outage
// surfacing as 503 naming the shard.
type handler struct {
	gw         *Gateway
	maxTimeout time.Duration
}

// NewHandler builds the gateway HTTP surface. maxTimeout is the
// operator's per-request bound, applied exactly like the single-node
// wire clamp; 0 disables it.
func NewHandler(gw *Gateway, maxTimeout time.Duration) http.Handler {
	h := &handler{gw: gw, maxTimeout: maxTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/v1/relations", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"relations": gw.Relations()})
		case http.MethodPost:
			h.handleRegister(w, r)
		case http.MethodDelete:
			h.handleUnregister(w, r)
		default:
			httpapi.WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET, POST or DELETE"))
		}
	})
	post := func(path string, fn func(http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				httpapi.WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
				return
			}
			fn(w, r)
		})
	}
	post("/v1/query", h.handleQuery)
	post("/v1/watch", h.handleWatch)
	post("/v1/insert", h.handleInsert)
	post("/v1/delete", h.handleDelete)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, gw.Stats(r.Context()))
	})
	mux.HandleFunc("/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"shards": gw.Shards()})
	})
	return mux
}

// writeGatewayError extends the single-node error mapping with the
// gateway-specific cases: a shard outage is 503 naming the failing
// shard, and a 4xx a shard already classified passes through verbatim.
func writeGatewayError(w http.ResponseWriter, err error) {
	var api *APIError
	if errors.As(err, &api) {
		httpapi.WriteError(w, api.Status, err)
		return
	}
	if errors.Is(err, ErrShardDown) {
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	if errors.Is(err, ErrClosed) {
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	if errors.Is(err, distributed.ErrNotShardable) {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteServiceError(w, err)
}

func (h *handler) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "csv" {
		q := r.URL.Query()
		if httpapi.Atoi(q.Get("window_ms")) != 0 {
			httpapi.WriteError(w, http.StatusBadRequest, errors.New("sliding windows are not supported in gateway mode"))
			return
		}
		name := q.Get("name")
		local, agg := httpapi.Atoi(q.Get("local")), httpapi.Atoi(q.Get("agg"))
		hasBand := q.Get("band") != "" && q.Get("band") != "0"
		rel, err := dataset.ReadCSV(r.Body, dataset.ReadOptions{
			Name: name, Local: local, Agg: agg, HasBand: hasBand,
		})
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		version, err := h.gw.Register(r.Context(), name, local, agg, rel.Rows())
		if err != nil {
			writeGatewayError(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, httpapi.RegisterResponseJSON{
			Name: name, Version: version, Tuples: rel.Len(),
		})
		return
	}
	var req httpapi.RegisterJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.WindowMS != 0 {
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("sliding windows are not supported in gateway mode"))
		return
	}
	tuples := make([]dataset.Tuple, len(req.Tuples))
	for i, t := range req.Tuples {
		tuples[i] = t.Tuple()
	}
	version, err := h.gw.Register(r.Context(), req.Name, req.Local, req.Agg, tuples)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.RegisterResponseJSON{
		Name: req.Name, Version: version, Tuples: len(tuples),
	})
}

func (h *handler) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("missing ?name="))
		return
	}
	if err := h.gw.Unregister(r.Context(), name); err != nil {
		writeGatewayError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "unregistered": true})
}

func (h *handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req httpapi.QueryJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	sreq := req.Request()
	sreq.Timeout, sreq.NoCache = httpapi.Clamp(req.TimeoutMS, h.maxTimeout), req.NoCache
	resp, err := h.gw.Query(r.Context(), sreq)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	out := httpapi.QueryResponseJSON{
		Skyline:   httpapi.Pairs(resp.Skyline),
		Count:     len(resp.Skyline),
		Source:    string(resp.Source),
		Algorithm: resp.Algorithm,
		Versions:  resp.Versions,
		ElapsedUS: resp.Elapsed.Microseconds(),
	}
	httpapi.WriteJSON(w, http.StatusOK, struct {
		httpapi.QueryResponseJSON
		Dist distStatsJSON `json:"dist"`
	}{out, distStatsJSON{
		Nodes:             resp.Dist.Nodes,
		CandidatesPerNode: resp.Dist.CandidatesPerNode,
		MessagesSent:      resp.Dist.MessagesSent,
		FloatsShipped:     resp.Dist.FloatsShipped,
		LocalUS:           resp.Dist.LocalTime.Microseconds(),
		VerifyUS:          resp.Dist.VerifyTime.Microseconds(),
		TotalUS:           resp.Dist.Total.Microseconds(),
	}})
}

// distStatsJSON is the wire form of the two-round breakdown the paper's
// distributed scheme reports (distributed.Stats).
type distStatsJSON struct {
	Nodes             int   `json:"nodes"`
	CandidatesPerNode []int `json:"candidates_per_node"`
	MessagesSent      int   `json:"messages_sent"`
	FloatsShipped     int   `json:"floats_shipped"`
	LocalUS           int64 `json:"local_us"`
	VerifyUS          int64 `json:"verify_us"`
	TotalUS           int64 `json:"total_us"`
}

func (h *handler) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req httpapi.QueryJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	watch, err := h.gw.Watch(r.Context(), req.Request())
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	httpapi.StreamWatch(w, watch)
}

func (h *handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req httpapi.InsertJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	tuples, err := req.Batch()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := h.gw.InsertBatch(r.Context(), req.Relation, tuples)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.InsertResponseJSON{
		ID: res.ID, Count: res.Count, Version: res.Version,
	})
}

func (h *handler) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req httpapi.DeleteJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	ids, err := req.Batch()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := h.gw.DeleteBatch(r.Context(), req.Relation, ids)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.DeleteResponseJSON{
		Count: res.Count, Version: res.Version,
	})
}
