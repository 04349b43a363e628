package service

import "github.com/lattice-tools/janus/internal/obsv"

// Service metrics, in the process-wide registry next to the synthesis
// pipeline's own (janus_core_*, janus_sat_*, …) so one /metrics scrape
// shows queue health and solver effort side by side.
var (
	mRequests    = obsv.Default.Counter("janus_service_requests_total")
	mCoalesced   = obsv.Default.Counter("janus_service_coalesced_total")
	mMemHits     = obsv.Default.Counter("janus_service_cache_mem_hits")
	mDiskHits    = obsv.Default.Counter("janus_service_cache_disk_hits")
	mCacheMiss   = obsv.Default.Counter("janus_service_cache_misses")
	mBudgetHits  = obsv.Default.Counter("janus_service_cache_budget_hits_total")
	mQueueFull   = obsv.Default.Counter("janus_service_queue_full_total")
	mCanceled    = obsv.Default.Counter("janus_service_canceled_total")
	mJobsDone    = obsv.Default.Counter("janus_service_jobs_done_total")
	mPartial     = obsv.Default.Counter("janus_service_partial_total")
	mJobErrors   = obsv.Default.Counter("janus_service_job_errors_total")
	mDiskCorrupt = obsv.Default.Counter("janus_service_disk_corrupt_total")
	// mVerifyFailures counts disk entries and peer answers whose lattice
	// did not realize the requested function; each was treated as a miss.
	mVerifyFailures = obsv.Default.Counter("janus_service_cache_verify_failures_total")
	gQueueDepth     = obsv.Default.Gauge("janus_service_queue_depth")
	gRunning        = obsv.Default.Gauge("janus_service_running_jobs")
	gMemoLoaded     = obsv.Default.Gauge("janus_service_memo_paths_loaded")
	hRequestNS      = obsv.Default.Histogram("janus_service_request_ns")
	hQueueWaitNS    = obsv.Default.Histogram("janus_service_queue_wait_ns")
	hSolveNS        = obsv.Default.Histogram("janus_service_solve_ns")
	// hFirstMappingNS distributes enqueue-to-first-verified-mapping — the
	// service-level anytime latency (queue wait included, unlike the
	// core-level janus_core_first_mapping_ns).
	hFirstMappingNS = obsv.Default.Histogram("janus_service_first_mapping_ns")

	mFlightEntries = obsv.Default.Counter("janus_service_flight_entries_total")
	mTracesPinned  = obsv.Default.Counter("janus_service_traces_pinned_total")

	// Batch synthesis: whole-batch requests, and per-output answers a
	// finished batch unpacked into the single-function cache.
	mBatchRequests = obsv.Default.Counter("janus_service_batch_requests_total")
	mBatchUnpacked = obsv.Default.Counter("janus_service_batch_unpacked_total")

	// Scheduler: DRR deficit refill rounds. Per-tenant depth/admit/shed
	// metrics are created lazily per tenant (tenant.go).
	mSchedRefills = obsv.Default.Counter("janus_service_sched_refill_rounds_total")

	// Peer cache fill (the front tier's reshard warm-up): lookups served
	// to peers on /v1/cache/{fnKey}, and fills this daemon performed
	// against a hinted peer on its own misses. The probe/hit/rejected
	// trio shares the peer_fill prefix so dashboards can correlate them.
	mPeerLookups      = obsv.Default.Counter("janus_service_cache_lookups_total")
	mPeerLookupHits   = obsv.Default.Counter("janus_service_cache_lookup_hits_total")
	mPeerFillProbes   = obsv.Default.Counter("janus_service_peer_fill_probes_total")
	mPeerFillHits     = obsv.Default.Counter("janus_service_peer_fill_hits_total")
	mPeerFillRejected = obsv.Default.Counter("janus_service_peer_fill_rejected_total")
)
