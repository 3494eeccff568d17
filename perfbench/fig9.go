package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"warped/internal/arch"
	"warped/internal/experiments"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/sim"
	"warped/internal/stats"
)

// Figure-9a goldens: the paper-grid answer every pass must reproduce.
const (
	fig9WarpInstrs = 2_060_679
	// fig9ResultDigest is the SHA-256 of the JSON Fig9aResult (every
	// per-benchmark coverage at full precision).
	fig9ResultDigest = "07794fb4316e0192ff1f6e1ad65c0ba1b78a1d0d40039ac432ab48657a135358"
	// fig9StatsDigest is the SHA-256 over the JSON of all 33 Stats, in
	// grid order (config-major, paper benchmark order).
	fig9StatsDigest = "e87c9fab7031c375052cf013f4cfe4015ab78c57c43577aec1f7a0ff860bd607"
)

var fig9Averages = [3]float64{79.88, 81.38, 88.18} // percent, two decimals

const fig9SimsPerPass = 33

// fig9Pass is one timed pass of the grid.
type fig9Pass struct {
	wall time.Duration
	sims []time.Duration // per-simulation wall time, completion order
}

// fig9MinPasses keeps enough per-simulation samples that the p95 tail
// has at least ten beyond it.
const fig9MinPasses = 7

// runFig9 proves the Figure-9a answer once through direct calls in
// set-up, then times serial Engine passes for the window, checking
// each against the goldens. Traced, it then times passes of the direct
// calls with spans.
func runFig9(e *env) (*outcome, error) {
	ctx := context.Background()
	golden, err := fig9Replica(ctx, nil)
	if err != nil {
		return nil, err
	}
	setup := time.Since(e.t0)
	eng := experiments.Engine{Workers: 1}
	steal, cpu := hostStealSeconds(), processCPUSeconds()
	passes, err := fig9Window(ctx, &eng, e.window, golden.stats)
	if err != nil {
		return nil, err
	}
	steal, cpu = hostStealSeconds()-steal, processCPUSeconds()-cpu
	out := &outcome{attempted: int64(len(passes) * fig9SimsPerPass)}
	e2e := fig9EndToEnd(setup, passes, peakRSSMB())
	perPass := make([]float64, len(passes))
	for i, p := range passes {
		perPass[i] = float64(p.wall.Nanoseconds()) / fig9WarpInstrs
	}
	out.notes = map[string]any{"pass_ns_per_warp_instr": perPass, "tail": "p95",
		"tail_samples_beyond": tailBeyond(len(passes)*fig9SimsPerPass, 0.95),
		"window_steal_s":      steal, "window_cpu_s": cpu}
	if !e.trace {
		out.metrics = e2e
		return out, nil
	}

	rec := newRecorder()
	startWindow()
	tracedStart := time.Now()
	var tpasses []fig9Pass
	var last *replicaPass
	for len(tpasses) < fig9MinPasses || time.Since(tracedStart) < e.window {
		if last, err = fig9Replica(ctx, rec); err != nil {
			return out, err
		}
		tpasses = append(tpasses, last.pass)
	}
	spans := rec.snapshot()
	traced := fig9EndToEnd(setup, tpasses, peakRSSMB())
	layers := fig9Layers(spans, len(tpasses), last.stats)
	in := probeInputs{progs: last.progs, sources: bundledSources(last.progs), cfg: fig9Configs()[0]}
	if err := probeLayers(e, in, layers); err != nil {
		return out, err
	}
	out.metrics = perLayer(layers)
	reportTrace(e, "fig9_serial", e2e, traced, layers, spans, rec.dropped.Load())
	return out, nil
}

// fig9Window runs Engine passes until the window has elapsed (and at
// least fig9MinPasses) and checks each pass against the goldens and,
// coverage by coverage, against the Stats proven in set-up.
func fig9Window(ctx context.Context, eng *experiments.Engine, window time.Duration, golden []*stats.Stats) ([]fig9Pass, error) {
	var passes []fig9Pass
	startWindow()
	start := time.Now()
	for len(passes) < fig9MinPasses || time.Since(start) < window {
		var sims []time.Duration
		t := time.Now()
		prev := t
		eng.Progress = func(done, total int) {
			now := time.Now()
			sims = append(sims, now.Sub(prev))
			prev = now
		}
		r, err := eng.Fig9a(ctx)
		wall := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("fig9a pass %d: %w", len(passes), err)
		}
		if err := checkFig9Result(r, golden); err != nil {
			return nil, err
		}
		passes = append(passes, fig9Pass{wall: wall, sims: sims})
	}
	return passes, nil
}

func checkFig9Result(r *experiments.Fig9aResult, golden []*stats.Stats) error {
	a4, a8, ax := r.Averages()
	got := [3]float64{round2(100 * a4), round2(100 * a8), round2(100 * ax)}
	if got != fig9Averages {
		return fmt.Errorf("%w: fig9a averages %v, want %v", errMismatch, got, fig9Averages)
	}
	if r.WarpInstrs != fig9WarpInstrs {
		return fmt.Errorf("%w: fig9a warp-instructions %d, want %d", errMismatch, r.WarpInstrs, fig9WarpInstrs)
	}
	if d := jsonDigest(r); d != fig9ResultDigest {
		return fmt.Errorf("%w: fig9a result digest %s, want %s", errMismatch, d, fig9ResultDigest)
	}
	nb := len(r.Names)
	for i, st := range golden {
		if cov := [][]float64{r.Cov4, r.Cov8, r.CovCross}[i/nb][i%nb]; st.Coverage() != cov {
			return fmt.Errorf("%w: fig9a %s coverage %v from Engine, %v from direct calls",
				errMismatch, r.Names[i%nb], cov, st.Coverage())
		}
	}
	return nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// fig9Configs are the three machine variants of Engine.Fig9a.
func fig9Configs() []arch.Config {
	mk := func(cluster int, mapping arch.MappingPolicy) arch.Config {
		cfg := arch.PaperConfig()
		cfg.DMR = arch.DMRFull
		cfg.ClusterSize = cluster
		cfg.Mapping = mapping
		return cfg
	}
	return []arch.Config{mk(4, arch.MapLinear), mk(8, arch.MapLinear), mk(4, arch.MapClusterRR)}
}

// replicaPass is one pass of direct calls with its Stats.
type replicaPass struct {
	pass  fig9Pass
	stats []*stats.Stats
	progs []*isa.Program // distinct programs launched, first-launch order
}

// fig9Replica runs the Figure-9a grid through the same public calls
// Engine makes (sim.New, Build, LaunchContext, the step Host callback,
// Check), recording a span around each when rec is non-nil, and checks
// the digest of every Stats.
func fig9Replica(ctx context.Context, rec *recorder) (*replicaPass, error) {
	bs := kernels.All()
	cfgs := fig9Configs()
	out := &replicaPass{}
	start := time.Now()
	pass := rec.open("experiments", "Fig9a pass", "", 0)
	for ci, cfg := range cfgs {
		for _, b := range bs {
			t := time.Now()
			job := fmt.Sprintf("cfg%d/%s", ci, b.Name)
			run := rec.open("runner", "run", job, pass.id())
			st, err := tracedRun(ctx, rec, job, run.id(), cfg, b, b.GPUMemBytes(), out)
			run.done()
			if err != nil {
				return nil, fmt.Errorf("fig9a replica %s: %w", job, err)
			}
			out.pass.sims = append(out.pass.sims, time.Since(t))
			out.stats = append(out.stats, st)
		}
	}
	pass.done()
	out.pass.wall = time.Since(start)
	if d := statsDigest(out.stats); d != fig9StatsDigest {
		return nil, fmt.Errorf("%w: fig9a Stats digest %s, want %s", errMismatch, d, fig9StatsDigest)
	}
	var wi int64
	for _, st := range out.stats {
		wi += st.WarpInstrs
	}
	if wi != fig9WarpInstrs {
		return nil, fmt.Errorf("%w: fig9a replica warp-instructions %d, want %d", errMismatch, wi, fig9WarpInstrs)
	}
	return out, nil
}

// tracedRun is kernels.ExecuteContext on a fresh GPU of memBytes, with a
// span around each call into the library.
func tracedRun(ctx context.Context, rec *recorder, job string, parent int64, cfg arch.Config, b *kernels.Benchmark,
	memBytes int, out *replicaPass) (*stats.Stats, error) {
	o := rec.open("sim", "sim.New", job, parent)
	g, err := sim.New(cfg, memBytes)
	o.done()
	if err != nil {
		return nil, err
	}
	o = rec.open("kernels", "Build", job, parent)
	run, err := b.Build(g)
	o.done()
	if err != nil {
		return nil, err
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		out.addProgram(step.Kernel.Prog)
		o = rec.open("sim", "LaunchContext", job, parent)
		st, err := g.LaunchContext(ctx, step.Kernel, sim.LaunchOpts{})
		o.done()
		if err != nil {
			return nil, fmt.Errorf("launch %d: %w", i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			o = rec.open("kernels", "Host", job, parent)
			err := step.Host(g)
			o.done()
			if err != nil {
				return nil, fmt.Errorf("host step %d: %w", i, err)
			}
		}
	}
	if run.Check != nil {
		o = rec.open("kernels", "Check", job, parent)
		err := run.Check(g)
		o.done()
		if err != nil {
			return nil, fmt.Errorf("validation: %w", err)
		}
	}
	return total, nil
}

func (p *replicaPass) addProgram(prog *isa.Program) {
	for _, q := range p.progs {
		if q.Name == prog.Name {
			return
		}
	}
	p.progs = append(p.progs, prog)
}

// fig9Layers derives the per-layer metrics of the traced passes: span
// times per pass (sim.New per simulation) and the modelled counts of
// the last pass, which repeat exactly.
func fig9Layers(spans []span, passes int, sts []*stats.Stats) layerValues {
	self := selfTimes(spans)
	v := layerValues{}
	perPass := func(layer, name string) float64 {
		d, _ := spanSelf(spans, self, layer, name)
		return ms(d) / float64(passes)
	}
	v["kernels.build_ms"] = perPass("kernels", "Build")
	v["kernels.check_ms"] = perPass("kernels", "Check")
	v["sim.launch_ms"] = perPass("sim", "LaunchContext")
	v["sim.launch_ns_per_warp_instr"] = v["sim.launch_ms"] * 1e6 / fig9WarpInstrs
	newUS, _ := meanSelfUS(spans, self, "sim", "sim.New")
	v["sim.new_ms"] = newUS / 1e3
	v["probe.host_ms_per_pass"] = perPass("kernels", "Host")
	v.addStatsCounts(sts, 1)
	return v
}

// fig9EndToEnd derives the end-to-end metrics from timed passes. Time
// per warp-instruction and throughput use the lower-quartile pass, which
// sheds passes slowed by other tenants' bursts of CPU steal; latencies
// are over every simulation of every pass.
func fig9EndToEnd(setup time.Duration, passes []fig9Pass, rss float64) []metric {
	walls := make([]float64, len(passes))
	var sims []float64
	for i, p := range passes {
		walls[i] = float64(p.wall.Nanoseconds())
		for _, d := range p.sims {
			sims = append(sims, ms(d))
		}
	}
	pass := percentile(walls, 0.25)
	return []metric{
		{"setup_s", "s", setup.Seconds()},
		{"ns_per_warp_instr", "ns", pass / fig9WarpInstrs},
		{"jobs_per_s", "1/s", fig9SimsPerPass / (pass / 1e9)},
		{"latency_p50_ms", "ms", percentile(sims, 0.50)},
		{"latency_tail_ms", "ms", percentile(sims, 0.95)},
		{"peak_rss_mb", "MB", rss},
		{"success_ratio", "ratio", 1},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// statsDigest is the SHA-256 over the JSON encoding of each Stats.
func statsDigest(sts []*stats.Stats) string {
	h := sha256.New()
	for _, st := range sts {
		data, err := json.Marshal(st)
		if err != nil {
			return "unencodable: " + err.Error()
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func jsonDigest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
