package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warped/internal/arch"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/sim"
	"warped/internal/stats"
)

// meteredCase is one launch sequence pinned by the metric-equivalence
// golden: a bundled benchmark run step by step on a fresh GPU with a
// registry attached, stopping at the first launch error.
type meteredCase struct {
	name    string
	bench   string
	memMB   int // device memory in MB; 0 means the 64 MB warpd worker machine
	policy  arch.Policy
	faults  func(cfg arch.Config) []*fault.Fault
	stop    bool
	aborted bool // the sequence ends in an aborted launch
}

// meteredOutcome is what the golden records per case.
type meteredOutcome struct {
	Error   string           `json:"error,omitempty"`
	Stats   *stats.Stats     `json:"stats"`
	Metrics metrics.Snapshot `json:"metrics"`
}

var meteredCases = []meteredCase{
	{
		// The warpd campaign job: SHA on the 64 MB machine with one
		// seeded transient fault (drawn like a {"random":1} spec) that
		// fires and is detected on SM 0 only.
		name: "sha_transient_64mb", bench: "SHA",
		faults: func(cfg arch.Config) []*fault.Fault {
			return []*fault.Fault{fault.RandomTransient(rand.New(rand.NewSource(11)), cfg.NumSMs, 100_000)}
		},
	},
	{
		// A permanent defect on one SM's SP lane: thousands of intra-
		// and inter-warp detections, and the launch still completes.
		name: "stuck_at_detections", bench: "BFS", memMB: 2,
		faults: func(arch.Config) []*fault.Fault {
			return []*fault.Fault{{Kind: fault.StuckAt, SM: 2, Lane: 9, Unit: isa.UnitSP, StuckVal: 1}}
		},
	},
	{
		// Selective protection armed: the skipped-instruction series moves;
		// CUFFT also exercises shared-memory bank conflicts.
		name: "warpsample_policy", bench: "CUFFT", memMB: 2,
		policy: arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 3},
	},
	{
		// StopOnError aborts mid-launch with entries still buffered in
		// the ReplayQ.
		name: "stop_on_error", bench: "CUFFT", memMB: 2, stop: true, aborted: true,
		faults: func(arch.Config) []*fault.Fault {
			return []*fault.Fault{{Kind: fault.StuckAt, SM: 2, Lane: 9, Unit: isa.UnitSFU, StuckVal: 1}}
		},
	},
	{
		// A corrupted address crashes the kernel (misaligned access).
		name: "crash", bench: "CUFFT", memMB: 2, aborted: true,
		faults: func(arch.Config) []*fault.Fault {
			return []*fault.Fault{{Kind: fault.StuckAt, SM: 2, Lane: 9, Unit: isa.UnitSP, StuckVal: 1}}
		},
	},
}

func runMetered(t *testing.T, c meteredCase) meteredOutcome {
	t.Helper()
	cfg := arch.WarpedDMRConfig()
	cfg.Policy = c.policy
	g, err := sim.New(cfg, c.memMB<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.ByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	run, err := b.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := sim.LaunchOpts{Metrics: reg, StopOnError: c.stop}
	if c.faults != nil {
		opts.Fault = fault.NewInjector(c.faults(cfg)...)
	}
	out := meteredOutcome{Stats: &stats.Stats{}}
	for _, step := range run.Steps {
		st, err := g.Launch(step.Kernel, opts)
		if err != nil {
			out.Error = err.Error()
			break
		}
		out.Stats.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	if (out.Error != "") != c.aborted {
		t.Fatalf("%s: launch error %q, want aborted=%v", c.name, out.Error, c.aborted)
	}
	out.Metrics = reg.Snapshot()
	return out
}

// TestMetricEquivalenceGolden pins the complete registry snapshot —
// every counter, every histogram's count, sum and buckets, and every
// gauge's value and high-water mark — of metered launches that cover
// the worker's campaign job, detections, a protection policy and both
// abort paths, together with their Stats and error text. How the
// layers tally and publish their metrics may change; what they publish
// may not. Regenerate with `go test ./internal/sim/ -run
// MetricEquivalenceGolden -update` only for an intended contract change.
//
// One difference is tolerated, only after an aborted launch: the
// current value of the dmr.replayq.depth gauge. It is whatever an SM
// last published when the launch stopped, so it depends on the order
// in which SMs report; its high-water mark stays exact.
func TestMetricEquivalenceGolden(t *testing.T) {
	got := map[string]meteredOutcome{}
	for _, c := range meteredCases {
		got[c.name] = runMetered(t, c)
	}
	golden := filepath.Join("testdata", "metric_equivalence.json")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	var want map[string]meteredOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range meteredCases {
		g, w := got[c.name], want[c.name]
		if g.Error != w.Error {
			t.Errorf("%s: error %q, golden %q", c.name, g.Error, w.Error)
		}
		if gs, ws := mustJSON(t, g.Stats), mustJSON(t, w.Stats); !bytes.Equal(gs, ws) {
			t.Errorf("%s: stats differ from golden:\n got %s\nwant %s", c.name, gs, ws)
		}
		if c.aborted {
			const tolerated = "dmr.replayq.depth"
			gv, wv := g.Metrics.Gauges[tolerated], w.Metrics.Gauges[tolerated]
			gv.Value, wv.Value = 0, 0
			g.Metrics.Gauges[tolerated], w.Metrics.Gauges[tolerated] = gv, wv
		}
		compareSnapshots(t, c.name, g.Metrics, w.Metrics)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareSnapshots reports every instrument that differs, by name.
func compareSnapshots(t *testing.T, name string, got, want metrics.Snapshot) {
	t.Helper()
	for k, w := range want.Counters {
		if g, ok := got.Counters[k]; !ok || g != w {
			t.Errorf("%s: counter %s = %d (present %v), golden %d", name, k, g, ok, w)
		}
	}
	for k, w := range want.Gauges {
		if g, ok := got.Gauges[k]; !ok || g != w {
			t.Errorf("%s: gauge %s = %+v (present %v), golden %+v", name, k, g, ok, w)
		}
	}
	for k, w := range want.Histograms {
		if g, ok := got.Histograms[k]; !ok || !bytes.Equal(mustJSON(t, g), mustJSON(t, w)) {
			t.Errorf("%s: histogram %s = %+v (present %v), golden %+v", name, k, g, ok, w)
		}
	}
	for k := range got.Counters {
		if _, ok := want.Counters[k]; !ok {
			t.Errorf("%s: counter %s is not in the golden", name, k)
		}
	}
	for k := range got.Gauges {
		if _, ok := want.Gauges[k]; !ok {
			t.Errorf("%s: gauge %s is not in the golden", name, k)
		}
	}
	for k := range got.Histograms {
		if _, ok := want.Histograms[k]; !ok {
			t.Errorf("%s: histogram %s is not in the golden", name, k)
		}
	}
}
