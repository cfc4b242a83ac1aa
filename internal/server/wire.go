package server

import (
	"vrdag/internal/dyngraph"
	"vrdag/internal/metrics"
	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// GenerateRequest is the body of POST /v1/generate.
type GenerateRequest struct {
	// Model names a registered model (required when more than one model is
	// registered; defaults to the single registered model otherwise).
	Model string `json:"model,omitempty"`
	// T is the number of snapshots to sample (required, 1..MaxT).
	T int `json:"t"`
	// Seed pins the random stream for reproducibility. When omitted the
	// server draws a fresh seed and reports it in the response.
	Seed *int64 `json:"seed,omitempty"`
	// DynamicNodes enables the node add/delete extension (§III-H).
	DynamicNodes bool `json:"dynamic_nodes,omitempty"`
}

// StreamHeader is the first NDJSON line of POST /v1/generate/stream and
// POST /v1/forecast/stream. It carries everything a client needs to
// pre-size decoding of the snapshot lines that follow; Session and Steps
// are set only on the forecast endpoint.
type StreamHeader struct {
	Model   string `json:"model"`
	Session string `json:"session,omitempty"` // forecast stream: source session
	Steps   int    `json:"steps,omitempty"`   // forecast stream: observed steps conditioned on
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	F       int    `json:"f"`
	T       int    `json:"t"` // requested horizon; the trailer reports how many were emitted
}

// StreamSnapshot is one per-timestep NDJSON line of the streaming
// endpoint: the snapshot index plus the same edge/attribute payload a
// sequence snapshot carries in the buffered JSON format.
type StreamSnapshot struct {
	T     int         `json:"t"`
	Edges [][2]int    `json:"edges"`
	X     [][]float64 `json:"x,omitempty"`
}

// StreamTrailer is the final NDJSON line of the streaming endpoint. Done
// is true iff all T snapshots were emitted; Truncated names the reason
// for a graceful early stop (e.g. "server draining"); Error reports a
// mid-stream generation failure. Exactly one of the three shapes appears.
type StreamTrailer struct {
	Done      bool    `json:"done"`
	Emitted   int     `json:"emitted"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Truncated string  `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/generate/batch: R independent
// sequences from one model, fanned out across the worker pool.
type BatchRequest struct {
	Model string `json:"model,omitempty"`
	// T is the horizon of every sequence in the batch (required, 1..MaxT).
	T int `json:"t"`
	// Count is the number of sequences R (1..MaxBatch). Defaults to
	// len(Seeds), or 1 when no seeds are given.
	Count int `json:"count,omitempty"`
	// Seeds pins the random streams of the first len(Seeds) sequences; the
	// server draws the rest and reports every seed in the response.
	Seeds        []int64 `json:"seeds,omitempty"`
	DynamicNodes bool    `json:"dynamic_nodes,omitempty"`
}

// BatchItem is one generated sequence of a batch response. Error is set
// (and Sequence nil) when that item's generation failed; other items are
// unaffected.
type BatchItem struct {
	Seed      int64              `json:"seed"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Sequence  *dyngraph.Sequence `json:"sequence,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/generate/batch.
type BatchResponse struct {
	Model     string      `json:"model"`
	Count     int         `json:"count"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Results   []BatchItem `json:"results"`
}

// IngestResponse is the body of a successful POST /v1/ingest: the
// session's cumulative counters after this request's edge stream was
// folded into its model state.
type IngestResponse struct {
	Session string `json:"session"`
	Model   string `json:"model"`
	// Created reports whether this request created the session.
	Created bool `json:"created,omitempty"`
	// Absorbed counts snapshots folded into the model state by this
	// request; Steps is the session's cumulative total.
	Absorbed int `json:"absorbed"`
	Steps    int `json:"steps"`
	// Edges/Records/Dropped/Nodes are cumulative stream counters:
	// deduplicated edges, parsed records, records dropped under
	// drop_unknown, and distinct node IDs mapped.
	Edges   int64 `json:"edges"`
	Records int64 `json:"records"`
	Dropped int64 `json:"dropped,omitempty"`
	Nodes   int   `json:"nodes"`
	// Pending reports that a window is still under construction after
	// this request (flush=false with records in the open window); the
	// next append continues it.
	Pending   bool    `json:"pending,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ExpiresAt string  `json:"expires_at"` // RFC3339; refreshed by every touch
}

// SessionInfo is one entry of GET /v1/ingest.
type SessionInfo struct {
	Session string  `json:"session"`
	Model   string  `json:"model"`
	Steps   int     `json:"steps"`
	Edges   int64   `json:"edges"`
	Records int64   `json:"records"`
	Dropped int64   `json:"dropped,omitempty"`
	Nodes   int     `json:"nodes"`
	AgeS    float64 `json:"age_s"`
	IdleS   float64 `json:"idle_s"`
	TTLS    float64 `json:"ttl_s"`
	// Spilled marks a durable session whose state currently lives on
	// disk only; the next ingest or forecast reloads it transparently.
	Spilled bool `json:"spilled,omitempty"`
	// Node names the peer holding this copy of the session; set by the
	// cluster fan-out listing, empty in single-node mode.
	Node string `json:"node,omitempty"`
}

// SessionDeleteResponse is the body of DELETE /v1/ingest?session=....
type SessionDeleteResponse struct {
	Session string `json:"session"`
	Deleted bool   `json:"deleted"`
}

// ForecastRequest is the body of POST /v1/forecast and
// POST /v1/forecast/stream: generate T future snapshots conditioned on
// the named session's ingested history.
type ForecastRequest struct {
	Session string `json:"session"`
	// T is the forecast horizon (required, 1..MaxT).
	T int `json:"t"`
	// Seed pins the random stream; omitted, the server draws one and
	// reports it. The same session + seed always yields the same future.
	Seed *int64 `json:"seed,omitempty"`
	// DynamicNodes enables the node add/delete extension (§III-H).
	DynamicNodes bool `json:"dynamic_nodes,omitempty"`
}

// ForecastResponse is the body of a successful POST /v1/forecast.
type ForecastResponse struct {
	Session   string             `json:"session"`
	Model     string             `json:"model"`
	Seed      int64              `json:"seed"`
	Steps     int                `json:"steps"` // observed steps the forecast continues from
	ElapsedMS float64            `json:"elapsed_ms"`
	Sequence  *dyngraph.Sequence `json:"sequence"`
}

// GenerateResponse is the body of a successful POST /v1/generate.
type GenerateResponse struct {
	Model     string             `json:"model"`
	Seed      int64              `json:"seed"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Sequence  *dyngraph.Sequence `json:"sequence"`
}

// MetricsResponse is the body of GET /v1/metrics: the Table-I structure
// metrics (and, for attributed models, the attribute distribution
// divergences) of a freshly generated sequence against the model's
// reference sequence.
type MetricsResponse struct {
	Model     string                  `json:"model"`
	Seed      int64                   `json:"seed"`
	T         int                     `json:"t"`
	ElapsedMS float64                 `json:"elapsed_ms"`
	Structure metrics.StructureReport `json:"structure"`
	AttrJSD   *float64                `json:"attr_jsd,omitempty"`
	AttrEMD   *float64                `json:"attr_emd,omitempty"`
	Runtime   *RuntimeStats           `json:"runtime,omitempty"`
	Server    *ServerStats            `json:"server,omitempty"`
}

// ServerStats reports per-endpoint request accounting alongside the
// runtime/arena stats: who is being called, how often requests shed
// (429/503), and where latency sits against fixed histogram buckets.
type ServerStats struct {
	UptimeS        float64                  `json:"uptime_s"`
	BucketBoundsMS []float64                `json:"bucket_bounds_ms"`
	Endpoints      map[string]EndpointStats `json:"endpoints"`
	// Durability is present only when the server runs with a DataDir.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Tenants is present only when per-tenant quotas are enabled and at
	// least one tenant has been seen.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Cluster is present only when the server runs behind a cluster node
	// (internal/cluster attaches its routing/replication counters here).
	Cluster any `json:"cluster,omitempty"`
	// Trace reports the request tracer's counters (see internal/obs).
	Trace obs.TracerStats `json:"trace"`
}

// TraceQueryResponse is the body of GET /v1/trace. With ?id= the
// matching traces are in Traces (one per node that served a piece of the
// request, in a cluster); otherwise Recent holds the newest completed
// traces and Slowest the worst ones still retained.
type TraceQueryResponse struct {
	Stats   obs.TracerStats `json:"stats"`
	Traces  []obs.TraceView `json:"traces,omitempty"`
	Recent  []obs.TraceView `json:"recent,omitempty"`
	Slowest []obs.TraceView `json:"slowest,omitempty"`
}

// TenantStats is one tenant's quota accounting.
type TenantStats struct {
	Admitted  int64   `json:"admitted"`
	Throttled int64   `json:"throttled"`
	Tokens    float64 `json:"tokens"` // bucket level at scrape time
}

// DurabilityStats reports the session persistence counters: how often
// the WAL is hit, what the fsync tax looks like, and whether the server
// has latched into degraded read-only mode.
type DurabilityStats struct {
	Enabled        bool   `json:"enabled"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	WALAppends int64 `json:"wal_appends"`
	Snapshots  int64 `json:"snapshots"`
	Recoveries int64 `json:"recoveries"`
	TornTails  int64 `json:"torn_tails,omitempty"`
	Spills     int64 `json:"spills"`
	Reloads    int64 `json:"reloads"`

	ResidentSessions int `json:"resident_sessions"`
	SpilledSessions  int `json:"spilled_sessions"`

	// Fsync latency over a bounded window of recent WAL appends.
	FsyncCount int64   `json:"fsync_count"`
	FsyncP50MS float64 `json:"fsync_p50_ms"`
	FsyncP99MS float64 `json:"fsync_p99_ms"`
}

// EndpointStats is one endpoint's counters. Buckets has one count per
// entry of BucketBoundsMS plus a final overflow bucket; counts are
// per-bucket, not cumulative.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Shed     int64   `json:"shed"`
	MeanMS   float64 `json:"mean_ms"`
	Buckets  []int64 `json:"buckets"`
}

// RuntimeStats reports allocator, garbage-collector, and tensor-arena
// health alongside the fidelity metrics, so the serving layer's memory
// behaviour under load is observable without attaching a profiler. The
// arena counters include the sharded free-list breakdown: a skewed shard
// or a climbing steal rate is the production signal that pool contention
// (not kernel math) is eating concurrency.
type RuntimeStats struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalMS  float64 `json:"gc_pause_total_ms"`
	Goroutines      int     `json:"goroutines"`

	// ComputeBackend names the SIMD kernel set serving every tensor op
	// ("purego", "tuned", "avx2" or "neon"); CPUFeatures lists what
	// the startup probe detected, so a fleet-wide metrics scrape shows at
	// a glance which hosts fell back to scalar kernels.
	ComputeBackend string   `json:"compute_backend"`
	CPUFeatures    []string `json:"cpu_features"`

	PoolGets      int64   `json:"tensor_pool_gets"`
	PoolHits      int64   `json:"tensor_pool_hits"`
	PoolPuts      int64   `json:"tensor_pool_puts"`
	PoolSteals    int64   `json:"tensor_pool_steals"`
	PoolHitRate   float64 `json:"tensor_pool_hit_rate"` // hits/gets since process start
	PoolRetainedB int64   `json:"tensor_pool_retained_bytes"`

	PoolShards []tensor.PoolShardStats `json:"tensor_pool_shards"`
}

// ModelInfo is one entry of GET /v1/models.
type ModelInfo struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	F         int    `json:"f"`
	Params    int    `json:"params"`
	Trained   bool   `json:"trained"`
	RefT      int    `json:"ref_t"` // reference sequence length; 0 when none registered
	HasRef    bool   `json:"has_ref"`
	Generated int64  `json:"generated"` // completed generation requests served
}

// HealthResponse is the body of GET /healthz. Status is "ok",
// "degraded" (a persistence failure latched the server read-only:
// forecasts still serve, ingest sheds until the operator intervenes;
// still HTTP 200), or "draining" (handing off before exit; HTTP 503 so
// probes route away). Reason explains any non-ok status; Peers carries
// cluster membership state when the server runs behind a cluster node.
type HealthResponse struct {
	Status   string `json:"status"`
	Reason   string `json:"reason,omitempty"`
	Models   int    `json:"models"`
	Workers  int    `json:"workers"`
	Draining bool   `json:"draining,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Peers    any    `json:"peers,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Cross-node request headers shared with internal/cluster. They live
// here (the lower layer) because cluster imports server, never the
// reverse.
const (
	// HeaderTenant names the tenant a request's quota is billed to.
	HeaderTenant = "X-Vrdag-Tenant"
	// HeaderForwarded marks a request already routed by a peer node; the
	// receiver serves it locally instead of re-proxying (loop guard —
	// during failover it is exactly what makes a follower act as
	// primary).
	HeaderForwarded = "X-Vrdag-Forwarded"
	// HeaderReplica marks a replicated ingest apply. It bypasses tenant
	// quotas (charged once, on the admitting node) and is accompanied by
	// HeaderBodyCRC and HeaderRepSeq.
	HeaderReplica = "X-Vrdag-Replica"
	// HeaderBodyCRC is the CRC32C (Castagnoli, hex) of a replicated
	// ingest body; the receiver verifies it before folding anything, so
	// a replication stream torn mid-body is rejected whole rather than
	// half-applied.
	HeaderBodyCRC = "X-Vrdag-Body-Crc"
	// HeaderRepSeq is the per-session replication sequence number; the
	// receiver drops already-applied sequences so retries and duplicated
	// deliveries fold exactly once.
	HeaderRepSeq = "X-Vrdag-Rep-Seq"
	// HeaderAck reports, on a primary's ingest response, whether the ack
	// covers the replica ("replicated") or only local durability
	// ("local", the degraded mode while the follower is unreachable).
	HeaderAck = "X-Vrdag-Ack"
)
