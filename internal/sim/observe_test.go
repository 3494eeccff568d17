package sim

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// observeKernel builds a tiny deterministic launch: vecadd over 48
// elements (one full warp + one partial warp) on a single-SM chip with
// full Warped-DMR, exercising both intra- and inter-warp paths.
func observeKernel(t *testing.T) (*GPU, *Kernel) {
	t.Helper()
	prog, err := asm.Assemble(vecAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.WarpedDMRConfig()
	cfg.NumSMs = 1
	g, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	a := g.Mem.MustAlloc(4 * n)
	b := g.Mem.MustAlloc(4 * n)
	out := g.Mem.MustAlloc(4 * n)
	av := make([]uint32, n)
	bv := make([]uint32, n)
	for i := range av {
		av[i] = uint32(i)
		bv[i] = uint32(2 * i)
	}
	if err := g.Mem.WriteWords(a, av); err != nil {
		t.Fatal(err)
	}
	if err := g.Mem.WriteWords(b, bv); err != nil {
		t.Fatal(err)
	}
	k := &Kernel{
		Prog: prog, GridX: 1, GridY: 1, BlockX: n, BlockY: 1,
		Params: mem.NewParams(n, a, b, out),
	}
	return g, k
}

// TestChromeTraceGolden pins the Chrome trace-event output of a small
// deterministic kernel byte-for-byte. Regenerate with `go test
// ./internal/sim/ -run ChromeTraceGolden -update` and eyeball the diff
// in chrome://tracing before committing.
func TestChromeTraceGolden(t *testing.T) {
	g, k := observeKernel(t)
	var sb strings.Builder
	cw := trace.NewChromeWriter(&sb)
	if _, err := g.Launch(k, LaunchOpts{Trace: cw}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "vecadd_chrome_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		// Find the first differing line for a readable failure.
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("chrome trace diverges from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("chrome trace length differs from golden: %d vs %d lines", len(gl), len(wl))
	}
}

// TestLaunchMetrics checks that a metered launch populates the
// instrument sets consistently with the deterministic statistics.
func TestLaunchMetrics(t *testing.T) {
	g, k := observeKernel(t)
	reg := metrics.New()
	st, err := g.Launch(k, LaunchOpts{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if got := counter("sim.warp_instrs_total"); got != st.WarpInstrs {
		t.Errorf("sim.warp_instrs_total = %d, want %d (stats)", got, st.WarpInstrs)
	}
	if got := counter("sim.idle_issue_cycles_total"); got != st.IdleIssueSlots {
		t.Errorf("sim.idle_issue_cycles_total = %d, want %d (stats)", got, st.IdleIssueSlots)
	}
	if got := counter("dmr.verified.intra_thread_instrs_total"); got != st.VerifiedIntra {
		t.Errorf("intra verified metric %d != stats %d", got, st.VerifiedIntra)
	}
	if got := counter("dmr.verified.inter_thread_instrs_total"); got != st.VerifiedInter {
		t.Errorf("inter verified metric %d != stats %d", got, st.VerifiedInter)
	}
	// The 48-thread block has a 16-wide tail warp, so both DMR paths run.
	if counter("dmr.verified.intra_thread_instrs_total") == 0 {
		t.Error("partial warp ran but intra-warp DMR metric is zero")
	}
	if counter("dmr.verified.inter_thread_instrs_total") == 0 {
		t.Error("full warp ran but inter-warp DMR metric is zero")
	}
	if counter("sim.issue_cycles_total") == 0 {
		t.Error("no issue cycles recorded")
	}
	if got := reg.Histogram("simt.reconv_stack_depth", nil).Count(); got != 2 {
		t.Errorf("reconv-stack-depth observations = %d, want 2 (one per warp)", got)
	}
	// Lane-shuffle coverage: replays must land on more than one physical
	// lane (the paper's hidden-error avoidance).
	lanes := 0
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "dmr.shuffle.lane.") && v > 0 {
			lanes++
		}
	}
	if lanes < 2 {
		t.Errorf("lane shuffle covered %d physical lanes, want >= 2", lanes)
	}
}

// TestConcurrentLaunchesShareRegistry: launches running at once on
// separate GPUs publish into one registry (the warpd worker pool's
// case), and the registry ends up holding exactly the sum of what each
// launch publishes alone.
func TestConcurrentLaunchesShareRegistry(t *testing.T) {
	single := metrics.New()
	g, k := observeKernel(t)
	if _, err := g.Launch(k, LaunchOpts{Metrics: single}); err != nil {
		t.Fatal(err)
	}
	want := single.Snapshot()

	const n = 4
	shared := metrics.New()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		g, k := observeKernel(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Launch(k, LaunchOpts{Metrics: shared}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := shared.Snapshot()
	for name, v := range want.Counters {
		if got.Counters[name] != n*v {
			t.Errorf("counter %s = %d, want %d x %d", name, got.Counters[name], n, v)
		}
	}
	for name, h := range want.Histograms {
		gh := got.Histograms[name]
		if gh.Count != n*h.Count || gh.Sum != n*h.Sum {
			t.Errorf("histogram %s count/sum = %d/%d, want %d x %d/%d", name, gh.Count, gh.Sum, n, h.Count, h.Sum)
		}
		for i, b := range h.Buckets {
			if gh.Buckets[i].Count != n*b.Count {
				t.Errorf("histogram %s bucket %d = %d, want %d x %d", name, i, gh.Buckets[i].Count, n, b.Count)
			}
		}
	}
	for name, gv := range want.Gauges {
		if got.Gauges[name] != gv {
			t.Errorf("gauge %s = %+v, want %+v", name, got.Gauges[name], gv)
		}
	}
}

// TestMetricsOffIdenticalStats pins the zero-observable-cost contract:
// running with a nil registry must produce byte-identical statistics to
// running with one attached.
func TestMetricsOffIdenticalStats(t *testing.T) {
	g1, k1 := observeKernel(t)
	st1, err := g1.Launch(k1, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g2, k2 := observeKernel(t)
	st2, err := g2.Launch(k2, LaunchOpts{Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("stats differ with metrics on vs off:\n--- off ---\n%+v\n--- on ---\n%+v", st1, st2)
	}
}
