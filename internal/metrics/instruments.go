package metrics

import "fmt"

// Bucket bounds shared by the instrument sets below. They are part of
// the observability contract (docs/OBSERVABILITY.md): changing them
// changes the shape of every exported histogram.
var (
	// ReplayQDepthBounds buckets ReplayQ occupancy observed at each
	// enqueue. The paper's recommended queue holds 10 entries, so the
	// bounds straddle that operating point.
	ReplayQDepthBounds = []int64{0, 1, 2, 4, 6, 8, 10, 12, 16, 24}

	// LatencyCycleBounds buckets cycle-denominated latencies
	// (verification lag, detection latency).
	LatencyCycleBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

	// StackDepthBounds buckets per-warp peak reconvergence-stack depth.
	StackDepthBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16}

	// LatencyMSBounds buckets wall-clock latencies in milliseconds
	// (runner task and whole-workload run latency).
	LatencyMSBounds = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
)

// Sim is the pre-resolved instrument set of the timing simulator (one
// per launch; shared by all SMs of the launch). A Sim built from a nil
// registry has nil instruments throughout, so every bump no-ops.
type Sim struct {
	// IssueCycles counts SM-cycles in which at least one instruction
	// issued; IdleCycles counts SM-cycles in which nothing was issuable;
	// StallCycles counts SM-cycles swallowed by DMR-induced stalls.
	IssueCycles *Counter
	IdleCycles  *Counter
	StallCycles *Counter

	// WarpInstrs counts issued warp instructions (primary executions
	// only, like stats.Stats.WarpInstrs).
	WarpInstrs *Counter

	// StackDepth histograms each warp's peak reconvergence-stack depth,
	// observed when the warp finishes.
	StackDepth *Histogram

	// DivergeEvents counts warp branch divergences (path splits),
	// observed when the warp finishes.
	DivergeEvents *Counter
}

// ForSim resolves the simulator instrument set against r (nil-safe).
func ForSim(r *Registry) *Sim {
	return &Sim{
		IssueCycles:   r.Counter("sim.issue_cycles_total"),
		IdleCycles:    r.Counter("sim.idle_issue_cycles_total"),
		StallCycles:   r.Counter("sim.dmr_stall_cycles_total"),
		WarpInstrs:    r.Counter("sim.warp_instrs_total"),
		StackDepth:    r.Histogram("simt.reconv_stack_depth", StackDepthBounds),
		DivergeEvents: r.Counter("simt.diverge_events_total"),
	}
}

// Exec is the pre-resolved instrument set of the functional executor,
// carried on exec.Context. A zero Exec (all-nil fields) is valid and
// no-ops.
type Exec struct {
	// DivergentBranches and UniformBranches classify executed BRA
	// instructions; SharedBankExtra accumulates the extra serialization
	// cycles of shared-memory bank conflicts (degree-1 accesses add 0).
	DivergentBranches *Counter
	UniformBranches   *Counter
	SharedBankExtra   *Counter
}

// ForExec resolves the executor instrument set against r (nil-safe).
func ForExec(r *Registry) *Exec {
	return &Exec{
		DivergentBranches: r.Counter("exec.divergent_branches_total"),
		UniformBranches:   r.Counter("exec.uniform_branches_total"),
		SharedBankExtra:   r.Counter("exec.shared_bank_extra_cycles_total"),
	}
}

// DMR is the pre-resolved instrument set of the Warped-DMR engine.
// Per-cluster and per-lane counter slices are always allocated (with
// nil entries when the registry is nil), so index-then-bump is safe
// without length checks.
type DMR struct {
	// ReplayQ occupancy: Depth is the gauge each launch publishes (the
	// occupancy when it returned, and the peak as high-water mark),
	// DepthHist the distribution observed at each enqueue, Enqueued the
	// total entries buffered, OverflowStalls the issue-stall cycles
	// charged because the queue was full, RAWFlushStalls the stall
	// cycles charged to verify a RAW-depended entry early.
	ReplayQDepth     *Gauge
	ReplayQDepthHist *Histogram
	ReplayQEnqueued  *Counter
	OverflowStalls   *Counter
	RAWFlushStalls   *Counter

	// Replay scheduling outcomes: replays co-executed for free on a
	// unit idled by an instruction-type switch, and replays drained on
	// idle issue cycles (or at end-of-kernel drain).
	CoexecReplays    *Counter
	IdleDrainReplays *Counter

	// Verification volume, in thread-instructions, split by mechanism.
	IntraVerified *Counter
	InterVerified *Counter

	// Selective-protection outcomes, in thread-instructions: eligible
	// instructions the configured policy admitted for verification vs
	// skipped (docs/POLICIES.md). Under the default Full policy every
	// eligible instruction lands in PolicyProtected.
	PolicyProtected *Counter
	PolicySkipped   *Counter

	// RFU pairing: Pairings counts idle->active lane assignments,
	// CoveredLanes counts distinct active lanes that received at least
	// one verifier, MissedLanes counts active lanes of partial warps
	// that no idle lane covered (missed intra-warp opportunities).
	// ClusterPairings attributes pairings to the RFU cluster (by
	// cluster index within the warp) that performed them.
	RFUPairings     *Counter
	RFUCoveredLanes *Counter
	RFUMissedLanes  *Counter
	ClusterPairings []*Counter

	// Lane-shuffle coverage: per-physical-lane counts of redundant
	// executions performed by that lane during temporal replays.
	ShuffleLaneUsed []*Counter

	// Latency distributions: VerifyLatency is issue-to-verification lag
	// for every temporal replay; DetectionLatency is issue-to-detection
	// lag for flagged mismatches only. Detections counts mismatches.
	VerifyLatency    *Histogram
	DetectionLatency *Histogram
	Detections       *Counter
}

// ForDMR resolves the DMR instrument set against r (nil-safe) for a
// machine with the given warp width and SIMT cluster size.
func ForDMR(r *Registry, warpSize, clusterSize int) *DMR {
	if warpSize <= 0 {
		warpSize = 32
	}
	if clusterSize <= 0 {
		clusterSize = warpSize
	}
	clusters := (warpSize + clusterSize - 1) / clusterSize
	m := &DMR{
		ReplayQDepth:     r.Gauge("dmr.replayq.depth"),
		ReplayQDepthHist: r.Histogram("dmr.replayq.depth_hist", ReplayQDepthBounds),
		ReplayQEnqueued:  r.Counter("dmr.replayq.enqueued_total"),
		OverflowStalls:   r.Counter("dmr.replayq.overflow_stall_cycles_total"),
		RAWFlushStalls:   r.Counter("dmr.replayq.raw_flush_stall_cycles_total"),
		CoexecReplays:    r.Counter("dmr.replay.coexec_total"),
		IdleDrainReplays: r.Counter("dmr.replay.idle_drain_total"),
		IntraVerified:    r.Counter("dmr.verified.intra_thread_instrs_total"),
		InterVerified:    r.Counter("dmr.verified.inter_thread_instrs_total"),
		PolicyProtected:  r.Counter("dmr.policy.protected_instrs_total"),
		PolicySkipped:    r.Counter("dmr.policy.skipped_instrs_total"),
		RFUPairings:      r.Counter("dmr.rfu.pairings_total"),
		RFUCoveredLanes:  r.Counter("dmr.rfu.covered_lanes_total"),
		RFUMissedLanes:   r.Counter("dmr.rfu.missed_lanes_total"),
		ClusterPairings:  make([]*Counter, clusters),
		ShuffleLaneUsed:  make([]*Counter, warpSize),
		VerifyLatency:    r.Histogram("dmr.verify_latency_cycles", LatencyCycleBounds),
		DetectionLatency: r.Histogram("dmr.detection_latency_cycles", LatencyCycleBounds),
		Detections:       r.Counter("dmr.detections_total"),
	}
	if r == nil {
		return m // nil entries throughout; skip formatting the names
	}
	for i := range m.ClusterPairings {
		m.ClusterPairings[i] = r.Counter(fmt.Sprintf("dmr.rfu.cluster.%02d.pairings_total", i))
	}
	for i := range m.ShuffleLaneUsed {
		m.ShuffleLaneUsed[i] = r.Counter(fmt.Sprintf("dmr.shuffle.lane.%02d.replays_total", i))
	}
	return m
}

// Vuln is the pre-resolved instrument set of the static fault-
// vulnerability (ACE) analysis. The analysis itself is pure; the CLIs
// and harnesses that drive it observe each kernel's classification
// here. A Vuln built from a nil registry no-ops throughout.
type Vuln struct {
	// Analyses counts kernels analyzed; the three PC counters accumulate
	// their per-class totals over eligible (DMR-verifiable) PCs.
	Analyses   *Counter
	ACEPCs     *Counter
	UnACEPCs   *Counter
	UnknownPCs *Counter

	// Synthesized counts protection policies derived from unACE PC
	// lists that actually skip something (a full policy is not counted).
	Synthesized *Counter
}

// ForVuln resolves the vulnerability-analysis instrument set against r
// (nil-safe).
func ForVuln(r *Registry) *Vuln {
	return &Vuln{
		Analyses:    r.Counter("dmr.vuln.analyses_total"),
		ACEPCs:      r.Counter("dmr.vuln.ace_pcs_total"),
		UnACEPCs:    r.Counter("dmr.vuln.unace_pcs_total"),
		UnknownPCs:  r.Counter("dmr.vuln.unknown_pcs_total"),
		Synthesized: r.Counter("dmr.vuln.policies_synthesized_total"),
	}
}

// Run is the pre-resolved instrument set of the run-orchestration
// worker pool (internal/runner). A Run built from a nil registry
// no-ops throughout.
type Run struct {
	// Task lifecycle counters. TasksFailed includes panicking tasks;
	// TaskPanics counts the panicking subset.
	TasksStarted   *Counter
	TasksCompleted *Counter
	TasksFailed    *Counter
	TaskPanics     *Counter

	// WorkersBusy tracks how many workers are executing a task right
	// now; its high-water mark is the peak pool utilization.
	WorkersBusy *Gauge

	// QueueDepth tracks how many accepted tasks are waiting for a
	// worker (persistent Pool only; Map hands indices out directly and
	// never moves this gauge). Its high-water mark is the deepest
	// backlog the pool absorbed without rejecting work.
	QueueDepth *Gauge

	// TaskLatencyMS histograms per-task wall-clock latency. Wall-clock
	// values vary run to run: they are operational data, not part of
	// the deterministic simulation output.
	TaskLatencyMS *Histogram
}

// ForRunner resolves the worker-pool instrument set against r
// (nil-safe).
func ForRunner(r *Registry) *Run {
	return &Run{
		TasksStarted:   r.Counter("runner.tasks_started_total"),
		TasksCompleted: r.Counter("runner.tasks_completed_total"),
		TasksFailed:    r.Counter("runner.tasks_failed_total"),
		TaskPanics:     r.Counter("runner.task_panics_total"),
		WorkersBusy:    r.Gauge("runner.workers_busy"),
		QueueDepth:     r.Gauge("runner.queue_depth"),
		TaskLatencyMS:  r.Histogram("runner.task_latency_ms", LatencyMSBounds),
	}
}

// Store is the pre-resolved instrument set of the durable
// content-addressed result store (internal/store). A Store built from
// a nil registry no-ops throughout.
type Store struct {
	// Read outcomes. A hit returns a verified payload; a miss means the
	// key has no entry; a corruption is an entry that failed hash
	// re-verification on read and was dropped (the caller sees a miss).
	Hits        *Counter
	Misses      *Counter
	Corruptions *Counter

	// Writes counts payloads durably committed (write-then-rename);
	// GCEvictions counts entries deleted by the size-bound GC.
	Writes      *Counter
	GCEvictions *Counter

	// Entries and Bytes gauge the store's current footprint (payload
	// files only; in-flight temp files are not counted).
	Entries *Gauge
	Bytes   *Gauge
}

// ForStore resolves the durable-store instrument set against r
// (nil-safe).
func ForStore(r *Registry) *Store {
	return &Store{
		Hits:        r.Counter("store.hits_total"),
		Misses:      r.Counter("store.misses_total"),
		Corruptions: r.Counter("store.corrupt_entries_total"),
		Writes:      r.Counter("store.writes_total"),
		GCEvictions: r.Counter("store.gc_evictions_total"),
		Entries:     r.Gauge("store.entries"),
		Bytes:       r.Gauge("store.bytes"),
	}
}

// Cluster is the pre-resolved instrument set of the coordinator's
// ring executor (internal/cluster, cmd/warpd -coordinator): placement,
// dispatch, hedging and worker health. Its job table reports through
// ForJobs under the "cluster" role. Per-worker dispatch counters are
// always allocated (with nil entries when the registry is nil),
// indexed by the worker's position in the configured pool. A Cluster
// built from a nil registry no-ops throughout.
type Cluster struct {
	// RingNodes gauges the healthy workers currently on the hash ring;
	// its high-water mark is the largest ring the coordinator held.
	RingNodes *Gauge

	// Dispatches counts jobs sent to a worker: primaries, hedges and
	// re-dispatches alike.
	Dispatches *Counter

	// Failure handling. HedgesFired counts extra dispatches launched by
	// the latency hedge; Redispatches counts jobs re-sent to the next
	// ring node after a draining (503), budget-exhausted (429) or dead
	// worker.
	HedgesFired  *Counter
	Redispatches *Counter

	// Health tracking: workers ejected from / readmitted to the ring by
	// the Ready prober (or ejected synchronously by a failed dispatch).
	Ejections    *Counter
	Readmissions *Counter

	// WorkerDispatches attributes dispatches (hedges included) to the
	// worker that received them, by configured pool index.
	WorkerDispatches []*Counter
}

// ForCluster resolves the coordinator instrument set against r
// (nil-safe) for a pool of numWorkers configured workers.
func ForCluster(r *Registry, numWorkers int) *Cluster {
	if numWorkers < 0 {
		numWorkers = 0
	}
	m := &Cluster{
		RingNodes:        r.Gauge("cluster.ring_nodes"),
		Dispatches:       r.Counter("cluster.dispatches_total"),
		HedgesFired:      r.Counter("cluster.hedges_fired_total"),
		Redispatches:     r.Counter("cluster.redispatches_total"),
		Ejections:        r.Counter("cluster.worker_ejections_total"),
		Readmissions:     r.Counter("cluster.worker_readmissions_total"),
		WorkerDispatches: make([]*Counter, numWorkers),
	}
	for i := range m.WorkerDispatches {
		m.WorkerDispatches[i] = r.Counter(fmt.Sprintf("cluster.worker.%02d.dispatches_total", i))
	}
	return m
}

// Jobs is the pre-resolved instrument set of a job table
// (internal/service.Server), named under its role: "service" on a
// warpd worker, "cluster" on a coordinator. Over any quiet period
// JobsSubmitted = CacheHits + CacheMisses + CacheCoalesced and
// CacheMisses = JobsExecuted. A Jobs built from a nil registry no-ops
// throughout.
type Jobs struct {
	// Submission outcomes. JobsSubmitted counts every accepted
	// submission (including ones answered from a cache tier or
	// coalesced onto an in-flight job); JobsRejected counts submissions
	// turned away by admission (queue full, draining, no worker), which
	// never count as submitted.
	JobsSubmitted *Counter
	JobsRejected  *Counter

	// Execution outcomes: jobs the executor finished, and the subset
	// that failed (assembly/validation/simulation errors, isolated
	// panics, or every worker failing). executed - failed = results now
	// cacheable.
	JobsExecuted *Counter
	JobsFailed   *Counter

	// Content-addressed cache behaviour. A hit serves a completed result
	// without executing, from memory or from the durable store; StoreHits
	// counts the durable-tier subset. A coalesce attaches a duplicate
	// submission to an in-flight job; a miss admits a fresh execution;
	// evictions count completed entries dropped by the LRU bound.
	CacheHits      *Counter
	StoreHits      *Counter
	CacheMisses    *Counter
	CacheCoalesced *Counter
	CacheEvictions *Counter

	// CacheEntries gauges the completed results currently retained.
	CacheEntries *Gauge

	// JobLatencyMS histograms admitted-to-finished wall-clock latency of
	// executed jobs (cache hits are not observed: they take no queue
	// time). Operational data, never part of the simulation output.
	JobLatencyMS *Histogram
}

// ForJobs resolves the job-table instrument set of role against r
// (nil-safe).
func ForJobs(r *Registry, role string) *Jobs {
	return &Jobs{
		JobsSubmitted:  r.Counter(role + ".jobs_submitted_total"),
		JobsRejected:   r.Counter(role + ".jobs_rejected_total"),
		JobsExecuted:   r.Counter(role + ".jobs_executed_total"),
		JobsFailed:     r.Counter(role + ".jobs_failed_total"),
		CacheHits:      r.Counter(role + ".cache_hits_total"),
		StoreHits:      r.Counter(role + ".store_hits_total"),
		CacheMisses:    r.Counter(role + ".cache_misses_total"),
		CacheCoalesced: r.Counter(role + ".cache_coalesced_total"),
		CacheEvictions: r.Counter(role + ".cache_evictions_total"),
		CacheEntries:   r.Gauge(role + ".cache_entries"),
		JobLatencyMS:   r.Histogram(role+".job_latency_ms", LatencyMSBounds),
	}
}
