package shard

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// NewHandler builds the gateway HTTP surface: internal/httpapi's one
// handler — the same decoding, clamping, validation and encoding a single
// ksjqd runs — with the Gateway's scatter-gather behind it instead of a
// local service. Clients cannot tell a gateway from one big ksjqd — except
// for /v1/stats and GET /v1/relations, which grow the cluster breakdown,
// the "dist" block on query replies, GET /v1/shards, and the deliberate
// gaps: no /v1/verify, no sliding windows (shard-side expiry would
// renumber rows behind the gateway's placement, so window_ms is rejected),
// and a shard outage surfacing as 503 naming the shard. maxTimeout is the
// operator's per-request bound, applied exactly like the single-node wire
// clamp; 0 disables it.
func NewHandler(gw *Gateway, maxTimeout time.Duration) http.Handler {
	mux := httpapi.New(backend{gw}, maxTimeout, writeGatewayError)
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
	switch {
	case errors.As(err, &api):
		httpapi.WriteError(w, api.Status, err)
	case errors.Is(err, ErrShardDown), errors.Is(err, ErrClosed):
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, distributed.ErrNotShardable):
		httpapi.WriteError(w, http.StatusBadRequest, err)
	default:
		httpapi.WriteServiceError(w, err)
	}
}

// backend stands a Gateway behind httpapi.Backend. Unregister, Watch,
// InsertBatch and DeleteBatch are the Gateway's own.
type backend struct{ *Gateway }

func (b backend) Register(ctx context.Context, name string, rel *dataset.Relation, window time.Duration) (uint64, error) {
	if window != 0 {
		// An APIError so the refusal goes out verbatim, like a shard's own 400.
		return 0, &APIError{Status: http.StatusBadRequest, Msg: "sliding windows are not supported in gateway mode"}
	}
	return b.Gateway.Register(ctx, name, rel.Local, rel.Agg, rel.Rows())
}

func (b backend) Relations() any                { return b.Gateway.Relations() }
func (b backend) Stats(ctx context.Context) any { return b.Gateway.Stats(ctx) }

// Query reshapes the gateway's answer into the single-node response plus
// the "dist" block: the wire form of the two-round breakdown the paper's
// distributed scheme reports (distributed.Stats).
func (b backend) Query(ctx context.Context, req service.QueryRequest) (*service.QueryResponse, any, error) {
	resp, err := b.Gateway.Query(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	return &service.QueryResponse{
			Skyline: resp.Skyline, Snapshot: resp.Snapshot, Source: resp.Source, Algorithm: resp.Algorithm,
			Versions: resp.Versions, Locals: resp.Locals, Elapsed: resp.Elapsed,
		}, distStatsJSON{
			Nodes:             resp.Dist.Nodes,
			CandidatesPerNode: resp.Dist.CandidatesPerNode,
			MessagesSent:      resp.Dist.MessagesSent,
			FloatsShipped:     resp.Dist.FloatsShipped,
			LocalUS:           resp.Dist.LocalTime.Microseconds(),
			VerifyUS:          resp.Dist.VerifyTime.Microseconds(),
			TotalUS:           resp.Dist.Total.Microseconds(),
		}, nil
}

type distStatsJSON struct {
	Nodes             int   `json:"nodes"`
	CandidatesPerNode []int `json:"candidates_per_node"`
	MessagesSent      int   `json:"messages_sent"`
	FloatsShipped     int   `json:"floats_shipped"`
	LocalUS           int64 `json:"local_us"`
	VerifyUS          int64 `json:"verify_us"`
	TotalUS           int64 `json:"total_us"`
}
