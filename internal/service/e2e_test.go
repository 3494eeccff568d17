package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"warped"
	"warped/client"
	"warped/internal/asm"
	"warped/internal/fault"
	"warped/internal/kernels"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/sim"
)

// tinySrc is a near-instant inline kernel for coalescing/drain tests.
const tinySrc = `
.kernel tiny
	mov  r0, %tid.x
	iadd r1, r0, 1
	exit
`

func newTestDaemon(t *testing.T, opt service.Options) (*service.Server, *client.Client, *httptest.Server) {
	t.Helper()
	srv := service.New(opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	return srv, c, ts
}

// TestE2ECoalescingAndCache is the tentpole end-to-end check: N
// concurrent identical submissions execute the simulation exactly
// once, and a later resubmission is answered from the cache.
// TestE2EStatsMatchDirectRun compares answers with direct runs.
func TestE2ECoalescingAndCache(t *testing.T) {
	reg := metrics.New()
	_, c, _ := newTestDaemon(t, service.Options{Workers: 2, QueueDepth: 16, Metrics: reg})
	ctx := context.Background()

	spec := &client.JobSpec{Source: tinySrc}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got ID %s, submission 0 got %s: content addressing broke", i, ids[i], ids[0])
		}
	}
	if _, err := c.Wait(ctx, ids[0]); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["service.jobs_executed_total"]; got != 1 {
		t.Errorf("jobs_executed_total = %d after %d identical submissions, want 1", got, n)
	}
	if got := snap.Counters["service.cache_misses_total"]; got != 1 {
		t.Errorf("cache_misses_total = %d, want 1", got)
	}
	if got := snap.Counters["service.cache_coalesced_total"] + snap.Counters["service.cache_hits_total"]; got != n-1 {
		t.Errorf("coalesced+hits = %d, want %d", got, n-1)
	}

	// Resubmission after completion is a definite cache hit.
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !resp.Cached || resp.Status != "done" {
		t.Errorf("resubmit = %+v, want cached done", resp)
	}
	if got := reg.Snapshot().Counters["service.jobs_executed_total"]; got != 1 {
		t.Errorf("jobs_executed_total = %d after resubmit, want still 1", got)
	}
}

// TestE2EStatsMatchDirectRun: the daemon's answer must be
// byte-identical to a direct run of the same canonical inputs — caching
// must never change the science. A benchmark job is compared with
// warped.Runner, an inline job with a library caller's own launch. That
// holds for every kind of answer: a clean run, a run recovered by the
// retry budget (stats and bookkeeping), and a crash (the error text,
// which names the device-memory size a corrupted address ran off).
func TestE2EStatsMatchDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark runs")
	}
	_, c, _ := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	stuckAt := func(bench string, seed int64) *client.JobSpec {
		return &client.JobSpec{Benchmark: bench, Faults: &service.FaultSpec{Random: 1, Kind: "stuck-at"}, Seed: seed}
	}
	cases := []struct {
		name  string
		spec  *client.JobSpec
		crash bool
	}{
		{"clean", &client.JobSpec{Benchmark: "MatrixMul"}, false},
		{"recovered", &client.JobSpec{Benchmark: "Libor", Seed: 5, Retry: 2, StopOnError: true,
			Faults: &service.FaultSpec{Random: 1, Kind: "transient", MaxCycle: 5000}}, false},
		{"crash/SCAN", stuckAt("SCAN", 3), true},
		{"crash/MatrixMul", stuckAt("MatrixMul", 3), true},
		{"crash/CUFFT", stuckAt("CUFFT", 3), true},
		{"inline/scan_block", &client.JobSpec{Source: bundledSource(t, "scan_block"), GridX: 4, BlockX: 128,
			Params: []uint32{0x10000, 0x20000, 0x30000, 256}}, false},
		{"inline/crash", &client.JobSpec{Source: wildSrc, Params: []uint32{0x7ffffff0}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, derr := directRun(ctx, t, tc.spec)
			if (derr != nil) != tc.crash {
				t.Fatalf("direct Run error = %v, want crash %v", derr, tc.crash)
			}

			resp, err := c.Submit(ctx, tc.spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			res, err := c.Wait(ctx, resp.ID)
			if tc.crash {
				if err == nil || !strings.HasSuffix(err.Error(), derr.Error()) {
					t.Fatalf("service answer %v does not end with the direct run's crash %q", err, derr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			got, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(direct.Stats)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("service stats differ from direct run:\nservice: %s\ndirect:  %s", got, want)
			}
			if res.Attempts != direct.Attempts || res.Recovered != direct.Recovered || res.Detections != direct.Detections {
				t.Errorf("bookkeeping differs: service {%d %v %d}, direct {%d %v %d}",
					res.Attempts, res.Recovered, res.Detections, direct.Attempts, direct.Recovered, direct.Detections)
			}
		})
	}
}

// directRun runs spec's canonical inputs without the service: a
// benchmark through warped.Runner, an inline kernel the way a library
// caller launches one (asm.AssembleNamed, a fresh default-size GPU,
// sim.GPU.LaunchContext).
func directRun(ctx context.Context, t *testing.T, spec *client.JobSpec) (*service.JobResult, error) {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Source != "" {
		_, id, err := service.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.AssembleNamed("job:"+id, canon.Source)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sim.New(canon.Config, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.LaunchContext(ctx, &sim.Kernel{Prog: prog, GridX: canon.GridX, GridY: canon.GridY,
			BlockX: canon.BlockX, BlockY: canon.BlockY, SharedBytes: max(canon.SharedBytes, prog.SharedBytes),
			Params: mem.NewParams(canon.Params...)}, sim.LaunchOpts{StopOnError: canon.StopOnError})
		if err != nil {
			return nil, err
		}
		return &service.JobResult{Stats: st, Attempts: 1}, nil
	}
	opts := []warped.RunOption{warped.WithConfig(canon.Config), warped.WithRetry(canon.Attempts)}
	if len(canon.Faults) > 0 {
		fs := make([]*fault.Fault, len(canon.Faults))
		for i, fd := range canon.Faults {
			if fs[i], err = service.ToFault(fd); err != nil {
				t.Fatal(err)
			}
		}
		opts = append(opts, warped.WithFaults(fault.NewInjector(fs...), nil))
	}
	if canon.StopOnError {
		opts = append(opts, warped.WithStopOnError())
	}
	r, err := (&warped.Runner{}).Run(ctx, canon.Benchmark, opts...)
	if err != nil {
		return nil, err
	}
	return &service.JobResult{Stats: r.Stats, Attempts: r.Attempts, Recovered: r.Recovered, Detections: r.Detections}, nil
}

// bundledSource returns the assembly of the named bundled kernel.
func bundledSource(t *testing.T, name string) string {
	t.Helper()
	for _, s := range kernels.Sources() {
		if s.Name == name {
			return s.Src
		}
	}
	t.Fatalf("no bundled kernel %q", name)
	return ""
}

// TestE2EGracefulDrain: SIGTERM semantics — admission stops (503,
// readiness flips), but every accepted job finishes; none are dropped.
func TestE2EGracefulDrain(t *testing.T) {
	reg := metrics.New()
	srv, c, _ := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 16, Metrics: reg})
	ctx := context.Background()

	// Distinct jobs (different params) so each is a separate execution.
	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		resp, err := c.Submit(ctx, &client.JobSpec{Source: tinySrc, Params: []uint32{uint32(i)}})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = resp.ID
	}

	if ready, err := c.Ready(ctx); err != nil || !ready {
		t.Fatalf("Ready before drain = %v, %v; want true", ready, err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ready, err := c.Ready(ctx); err != nil || ready {
		t.Fatalf("Ready during drain = %v, %v; want false", ready, err)
	}

	// Zero dropped jobs: every accepted submission reached done.
	for i, id := range ids {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatalf("Status %d: %v", i, err)
		}
		if st.Status != "done" {
			t.Errorf("job %d (%s) = %s after drain, want done (error: %s)", i, id, st.Status, st.Error)
		}
	}
	if got := reg.Snapshot().Counters["service.jobs_executed_total"]; got != n {
		t.Errorf("jobs_executed_total = %d, want %d", got, n)
	}

	// New admissions are refused with the draining answer.
	if _, err := c.Submit(ctx, &client.JobSpec{Source: tinySrc, Params: []uint32{99}}); !errors.Is(err, client.ErrDraining) {
		t.Errorf("Submit during drain = %v, want ErrDraining", err)
	}
	// Health stays up while draining (the process is alive).
	resp, err := http.Get(c.Base() + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d during drain, want 200", resp.StatusCode)
	}
}

// TestE2EBackpressure: a saturated daemon sheds load with 429 and the
// client's retry loop eventually lands the job once capacity frees.
func TestE2EBackpressure(t *testing.T) {
	reg := metrics.New()
	srv, c, _ := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 1, Metrics: reg})
	ctx := context.Background()

	// A job spec whose execution blocks until we release it is not
	// expressible through the public API; instead saturate with slow-ish
	// real jobs and verify the typed 429 surfaces when the queue is full.
	var rejected bool
	for i := 0; i < 64 && !rejected; i++ {
		_, err := srv.Submit(&client.JobSpec{Source: tinySrc, Params: []uint32{uint32(i)}})
		if errors.Is(err, service.ErrBusy) {
			rejected = true
		} else if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if !rejected {
		t.Skip("queue never saturated on this machine; backpressure path not reachable")
	}
	if got := reg.Snapshot().Counters["service.jobs_rejected_total"]; got == 0 {
		t.Error("jobs_rejected_total = 0 after a rejection")
	}
	// The client-side retry must still land the job once workers catch up.
	resp, err := c.Submit(ctx, &client.JobSpec{Source: tinySrc, Params: []uint32{1000}})
	if err != nil {
		t.Fatalf("Submit with retry: %v", err)
	}
	if _, err := c.Wait(ctx, resp.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestE2EErrors: the API's failure answers — bad specs are 400, an
// unknown job is 404, an unfinished job's result is 409.
func TestE2EErrors(t *testing.T) {
	_, c, ts := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	var apiErr *client.APIError
	if _, err := c.Submit(ctx, &client.JobSpec{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spec Submit = %v, want 400", err)
	}
	if _, err := c.Status(ctx, "jdeadbeefdeadbeef"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown Status = %v, want 404", err)
	}
	if _, err := c.Result(ctx, "jdeadbeefdeadbeef"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown Result = %v, want 404", err)
	}

	// A block wider than the SM is refused at submit, whatever the retry
	// budget, naming the field, the value and the limit.
	for _, retry := range []int{0, 3} {
		_, err := c.Submit(ctx, &client.JobSpec{Source: tinySrc, BlockX: 4096, Retry: retry})
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
			!contains(apiErr.Message, "block_x 4096 x block_y 1 exceeds the limit of 1024 threads") {
			t.Errorf("oversized block at retry %d: Submit = %v, want 400 naming block_x 4096 and the limit", retry, err)
		}
	}

	// A failing inline job reports failed status citing the job and its
	// cause, whatever the retry budget: the kernel is assembled,
	// verified and checked against the machine once, before any attempt,
	// so a retry never turns the diagnostic into a permanent-fault
	// answer. A kernel whose shared-memory accesses race only across
	// warps is verified at the job's launch geometry: at 64 threads it
	// fails the verifier rule. Shared memory its .shared directive asks
	// for is known only once it is assembled, so that launch check fails
	// the job rather than its submission.
	for _, tc := range []struct {
		name  string
		spec  *client.JobSpec
		cause string
	}{
		{"bad assembly", &client.JobSpec{Source: badSrc}, `line 2: unknown mnemonic "bogus"`},
		{"bad assembly/retry 3", &client.JobSpec{Source: badSrc, Retry: 3}, `line 2: unknown mnemonic "bogus"`},
		{"racy", &client.JobSpec{Source: racySrc, BlockX: 64}, "shared-race"},
		{"racy/retry 3", &client.JobSpec{Source: racySrc, BlockX: 64, Retry: 3}, "shared-race"},
		{"oversized .shared", &client.JobSpec{Source: bigSharedSrc}, "launch 0: sim: block shared memory 131072 exceeds SM capacity 65536"},
		{"oversized .shared/retry 3", &client.JobSpec{Source: bigSharedSrc, Retry: 3}, "launch 0: sim: block shared memory 131072 exceeds SM capacity 65536"},
	} {
		resp, err := c.Submit(ctx, tc.spec)
		if err != nil {
			t.Fatalf("%s: Submit: %v", tc.name, err)
		}
		if _, err := c.Wait(ctx, resp.ID); err == nil {
			t.Fatalf("%s: Wait on a failing job returned no error", tc.name)
		}
		st, err := c.Status(ctx, resp.ID)
		if err != nil {
			t.Fatalf("%s: Status: %v", tc.name, err)
		}
		if st.Status != "failed" || !contains(st.Error, "job:"+resp.ID) || !contains(st.Error, tc.cause) {
			t.Errorf("%s: status = %+v, want failed citing job:%s and %q", tc.name, st, resp.ID, tc.cause)
		}
	}

	// Unknown POST body fields are rejected.
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatalf("empty POST: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty POST = %d, want 400", r.StatusCode)
	}
}

// TestE2EBenchmarksEndpoint: the discovery endpoint lists the paper
// suite and the extras.
func TestE2EBenchmarksEndpoint(t *testing.T) {
	_, c, _ := newTestDaemon(t, service.Options{Workers: 1})
	names, err := c.Benchmarks(context.Background())
	if err != nil {
		t.Fatalf("Benchmarks: %v", err)
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"MatrixMul", "BitonicSort", "Reduce"} {
		if !found[want] {
			t.Errorf("benchmark list %v is missing %s", names, want)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// badSrc fails to assemble on its second line.
const badSrc = ".kernel bad\n\tbogus r0\n"

// bigSharedSrc asks for twice the SM's 64 KiB of shared memory.
const bigSharedSrc = ".kernel big\n.shared 131072\n\texit\n"

// wildSrc loads from the address in its first parameter, so a large
// one runs off the end of device memory.
const wildSrc = `.kernel wild
.reg 4
ld.param r0, [0]
ld.global r1, [r0]
exit
`

// racySrc stores to word tid and loads word tid+1 with no barrier
// between: a race between the last thread of one warp and the first of
// the next, so it verifies clean at one warp and fails at 64 threads.
const racySrc = `.kernel racy
.reg 4
.shared 512
mov r0, %tid.x
shl r1, r0, 2
mov r2, 1
st.shared [r1], r2
ld.shared r3, [r1+4]
exit
`
