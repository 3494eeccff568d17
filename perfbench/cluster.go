package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"warped"
	"warped/internal/arch"
	"warped/internal/core"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/sim"
	"warped/internal/stats"
)

// clusterPoll is the benchmark clients' poll interval: well below the
// ~200 ms job time, so client polling adds little to the coordinator's
// own 25 ms worker-poll grid.
const clusterPoll = 5 * time.Millisecond

// clusterTail is the tail percentile of cluster_campaign: p90 keeps
// dozens of samples beyond it in a window and, unlike p95, held its
// run-to-run spread on a host with heavy CPU steal.
const clusterTail = 0.90

// campaignJobTimeout is the workers' -job-timeout. A SHA job takes a
// fifth of a second, but a transient fault can send its kernel into a
// loop that only the 200M-cycle watchdog would end, minutes later; the
// worker cancels it here and the job counts as timed out.
const campaignJobTimeout = 10 * time.Second

// reexecSample is how many answered jobs are re-executed with direct
// library calls after the window (crashed jobs are always re-executed).
const reexecSample = 8

// clusterRig is one coordinator over two workers.
type clusterRig struct {
	coord   *daemon
	workers []*daemon
}

func (r *clusterRig) stop() error { return stopAll(append([]*daemon{r.coord}, r.workers...)...) }

// startCluster starts two workers and a coordinator on fresh stores and
// warms them with one job per client, so connections are open and the
// heap has grown before the window.
func startCluster(e *env, n int, rec *recorder, next func(int) *service.JobSpec) (*clusterRig, error) {
	rig := &clusterRig{}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := startWorker(storeDir(e, fmt.Sprintf("c%d-worker%d", n, i)), 0, campaignJobTimeout, rec)
		if err != nil {
			return nil, errors.Join(err, rig.stop())
		}
		rig.workers = append(rig.workers, w)
		urls = append(urls, w.url)
	}
	co, err := startCoordinator(storeDir(e, fmt.Sprintf("c%d-coord", n)), urls, rec)
	if err != nil {
		return nil, errors.Join(err, stopAll(rig.workers...))
	}
	rig.coord = co
	if err := waitReady(co.url); err != nil {
		return nil, errors.Join(err, rig.stop())
	}
	for _, a := range warmUp(benchClients(co.url, 2, clusterPoll, rec), rec, next) {
		if a.err != nil && !isCrash(a.err) {
			return nil, errors.Join(fmt.Errorf("warm-up job: %w", a.err), rig.stop())
		}
	}
	return rig, nil
}

// campaignSpecs draws unique SHA transient-fault jobs from the seed.
type campaignSpecs struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func (c *campaignSpecs) next() *service.JobSpec {
	for {
		n := c.rng.Int63()
		if !c.seen[n] {
			c.seen[n] = true
			return &service.JobSpec{Benchmark: "SHA", Faults: &service.FaultSpec{Random: 1, Kind: "transient"}, Seed: n}
		}
	}
}

// runCluster drives fresh fault-campaign jobs through a coordinator.
func runCluster(e *env) (*outcome, error) {
	gen := &campaignSpecs{rng: rand.New(rand.NewSource(e.seed)), seen: map[int64]bool{}}
	var genMu sync.Mutex
	next := func(int) *service.JobSpec {
		genMu.Lock()
		defer genMu.Unlock()
		return gen.next()
	}
	setup, rig, err := repeatSetup(e, func(n int) (*clusterRig, error) { return startCluster(e, n, nil, next) },
		(*clusterRig).stop)
	if err != nil {
		return nil, err
	}

	res := clusterWindow(e, rig, nil, next)
	if err := rig.stop(); err != nil {
		return nil, err
	}
	out := res.outcome(setup.total(), clusterTail)
	div, err := checkCampaign(e.seed, res.answers)
	out.notes["library_divergences"] = div
	if err != nil {
		return out, err
	}
	if !e.trace {
		out.metrics = res.e2e
		return out, nil
	}

	rec := newRecorder()
	t := time.Now()
	trig, err := startCluster(e, setupRepeats, rec, next)
	if err != nil {
		return out, err
	}
	tsetup := setup.startup + time.Since(t)
	tres := clusterWindow(e, trig, rec, next)
	if err := trig.stop(); err != nil {
		return out, err
	}
	if _, err := checkCampaign(e.seed+1, tres.answers); err != nil {
		return out, err
	}
	tres.outcome(tsetup, clusterTail)
	spans := rec.snapshot()
	v := serviceLayers(spans, tres)
	sts := answeredStats(tres.answers)
	v.addStatsCounts(sts, float64(len(sts)))
	in := probeInputs{specs: specsOf(tres.answers), payloads: payloadsOf(tres.answers), cfg: warped.WarpedDMRConfig()}
	b, err := kernels.ByName("SHA")
	if err != nil {
		return out, err
	}
	in.progs, in.sources = benchmarkPrograms(b)
	if err := probeLayers(e, in, v); err != nil {
		return out, err
	}
	if err := jobLayers(b, v); err != nil {
		return out, err
	}
	out.metrics = perLayer(v)
	reportTrace(e, "cluster_campaign", res.e2e, tres.e2e, v, spans, rec.dropped.Load())
	return out, nil
}

func clusterWindow(e *env, rig *clusterRig, rec *recorder, next func(int) *service.JobSpec) *windowResult {
	regs := []*metrics.Registry{rig.coord.reg, rig.workers[0].reg, rig.workers[1].reg}
	return runWindow(e, regs, benchClients(rig.coord.url, 2, clusterPoll, rec), rec, next, nil)
}

// checkCampaign re-executes a seeded sample of answered jobs, and every
// crashed one, through direct library calls on the machine warpd runs
// them on, and compares results byte for byte (a crash must recur with
// the same message). It also runs each through warped.Runner.Run, which
// provisions Benchmark.GPUMemBytes instead of the default 64 MB, and
// returns the jobs whose answer differs there.
func checkCampaign(seed int64, as []answer) ([]string, error) {
	var pick, done []answer
	for _, a := range as {
		switch {
		case a.err != nil && isCrash(a.err):
			pick = append(pick, a)
		case a.err == nil:
			done = append(done, a)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
	pick = append(pick, done[:min(reexecSample, len(done))]...)
	var divergent []string
	for _, a := range pick {
		canon, err := a.spec.Canonicalize()
		if err != nil {
			return nil, err
		}
		want, werr := replayBenchmark(canon.Benchmark, canon.Config, canon.Faults, canon.Attempts, canon.StopOnError)
		var got *service.JobResult
		if a.err == nil {
			got = &service.JobResult{Stats: a.res.Stats, Attempts: a.res.Attempts, Recovered: a.res.Recovered, Detections: a.res.Detections}
		}
		if err := sameAnswer(a, got, want, werr); err != nil {
			return nil, fmt.Errorf("%w: %v", errMismatch, err)
		}
		var fs []*fault.Fault
		for _, fd := range canon.Faults {
			f, err := toFault(fd)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		r, lerr := (&warped.Runner{}).Run(context.Background(), canon.Benchmark, warped.WithConfig(canon.Config),
			warped.WithFaults(fault.NewInjector(fs...), nil), warped.WithRetry(canon.Attempts))
		var lib *service.JobResult
		if lerr == nil {
			lib = &service.JobResult{Stats: r.Stats, Attempts: r.Attempts, Recovered: r.Recovered, Detections: r.Detections}
		}
		if sameAnswer(a, got, lib, lerr) != nil {
			divergent = append(divergent, fmt.Sprintf("%s (seed %d)", a.id, a.spec.Seed))
		}
	}
	return divergent, nil
}

// sameAnswer compares a daemon answer (got, or the crash in a.err) with
// a re-execution (want, or its error).
func sameAnswer(a answer, got, want *service.JobResult, werr error) error {
	switch {
	case a.err != nil && (werr == nil || !strings.HasSuffix(a.err.Error(), werr.Error())):
		return fmt.Errorf("job %s (seed %d) crashed with %q, re-execution gave %v", a.id, a.spec.Seed, a.err, werr)
	case a.err != nil:
		return nil
	case werr != nil:
		return fmt.Errorf("job %s (seed %d) answered, re-execution failed: %v", a.id, a.spec.Seed, werr)
	}
	return sameJSON(a.id, got, want)
}

// toFault converts a canonical fault definition into an injectable
// fault, as the worker does.
func toFault(fd service.FaultDef) (*fault.Fault, error) {
	units := map[string]isa.UnitClass{"sp": isa.UnitSP, "sfu": isa.UnitSFU, "ldst": isa.UnitLDST}
	u, ok := units[fd.Unit]
	if !ok {
		return nil, fmt.Errorf("unknown fault unit %q", fd.Unit)
	}
	f := &fault.Fault{SM: fd.SM, Lane: fd.Lane, Unit: u, Bit: fd.Bit}
	switch fd.Kind {
	case "transient":
		f.Kind, f.Cycle = fault.Transient, fd.Cycle
	case "stuck-at":
		f.Kind, f.StuckVal = fault.StuckAt, fd.StuckVal
	default:
		return nil, fmt.Errorf("unknown fault kind %q", fd.Kind)
	}
	return f, nil
}

// jobLayerRuns is how many fault-free runs of the campaign's benchmark
// jobLayers times.
const jobLayerRuns = 5

// jobLayers times the calls a worker's job makes (sim.New at the
// worker's 64 MB, Build, LaunchContext, Check) on the campaign's
// benchmark, fault-free so that Check runs, with a span around each:
// the kernels and sim layers that run inside a worker, per job.
func jobLayers(b *kernels.Benchmark, v layerValues) error {
	rec := newRecorder()
	var wi int64
	for i := 0; i < jobLayerRuns; i++ {
		st, err := tracedRun(context.Background(), rec, b.Name, 0, warped.WarpedDMRConfig(), b, 0, &replicaPass{})
		if err != nil {
			return fmt.Errorf("%s job layers: %w", b.Name, err)
		}
		wi += st.WarpInstrs
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	perJob := func(layer, name string) float64 {
		d, _ := spanSelf(spans, self, layer, name)
		return ms(d) / jobLayerRuns
	}
	v["kernels.build_ms"] = perJob("kernels", "Build")
	v["kernels.check_ms"] = perJob("kernels", "Check")
	v["sim.new_ms"] = perJob("sim", "sim.New")
	v["sim.launch_ms"] = perJob("sim", "LaunchContext")
	v["sim.launch_ns_per_warp_instr"] = v["sim.launch_ms"] * 1e6 * jobLayerRuns / float64(wi)
	return nil
}

// benchmarkPrograms builds a benchmark on a scratch GPU and returns its
// distinct launched programs with their sources.
func benchmarkPrograms(b *kernels.Benchmark) ([]*isa.Program, map[string]string) {
	g, err := sim.New(warped.WarpedDMRConfig(), b.GPUMemBytes())
	if err != nil {
		return nil, nil
	}
	run, err := b.Build(g)
	if err != nil {
		return nil, nil
	}
	rp := &replicaPass{}
	for _, s := range run.Steps {
		rp.addProgram(s.Kernel.Prog)
	}
	return rp.progs, bundledSources(rp.progs)
}

// replayBenchmark re-executes a canonical benchmark job through direct
// library calls on the machine warpd runs it on: a fresh default-size
// GPU per attempt (warped.NewGPU), one fault injector shared by the
// attempts, and host validation only for fault-free jobs.
func replayBenchmark(name string, cfg arch.Config, defs []service.FaultDef, attempts int, stopOnError bool) (*service.JobResult, error) {
	b, err := kernels.ByName(name)
	if err != nil {
		if b, err = kernels.ExtraByName(name); err != nil {
			return nil, err
		}
	}
	detections := 0
	opts := sim.LaunchOpts{StopOnError: stopOnError, OnError: func(core.ErrorEvent) { detections++ }}
	if len(defs) > 0 {
		var fs []*fault.Fault
		for _, fd := range defs {
			f, err := toFault(fd)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		opts.Fault = fault.NewInjector(fs...)
	}
	out := &service.JobResult{}
	for attempt := 1; attempt <= attempts; attempt++ {
		out.Attempts = attempt
		st, err := replayAttempt(b, cfg, opts, len(defs) == 0)
		out.Detections = detections
		if err == nil && st.FaultsDetected == 0 {
			out.Stats, out.Recovered = st, attempt > 1
			return out, nil
		}
		if attempts == 1 {
			if err != nil {
				return nil, err
			}
			out.Stats = st
			return out, nil
		}
	}
	return nil, fmt.Errorf("%s still failing after %d attempts", name, out.Attempts)
}

// replayAttempt is one attempt: build, every launch step, validation.
func replayAttempt(b *kernels.Benchmark, cfg arch.Config, opts sim.LaunchOpts, validate bool) (*stats.Stats, error) {
	g, err := warped.NewGPU(cfg)
	if err != nil {
		return nil, err
	}
	run, err := b.Build(g)
	if err != nil {
		return nil, err
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		st, err := g.LaunchContext(context.Background(), step.Kernel, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: launch %d: %w", b.Name, i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				return nil, err
			}
		}
	}
	if validate && run.Check != nil {
		if err := run.Check(g); err != nil {
			return nil, fmt.Errorf("%s: validation: %w", b.Name, err)
		}
	}
	return total, nil
}
