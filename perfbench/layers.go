package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/store"
	"warped/internal/verify"
)

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists every per-layer metric in report order. A traced
// run reports all of them; one the workload does not measure reads 0
// and the table says why.
var layerMetrics = []layerMetric{
	{"kernels.build_ms", "ms", "ns_per_warp_instr (small share); Benchmark.Build per pass (fig9_serial) or per job (cluster_campaign)"},
	{"kernels.check_ms", "ms", "ns_per_warp_instr (small share); Run.Check per pass (fig9_serial) or per job (cluster_campaign)"},
	{"sim.new_ms", "ms", "cluster_campaign latency/jobs_per_s/peak_rss_mb, warpd_hot setup_s; per simulation, 2 MB library path, 64 MB per warpd attempt"},
	{"sim.launch_ms", "ms", "ns_per_warp_instr ~1:1 (cluster_campaign: in proportion to its share of service.exec_ms); LaunchContext self time per pass or job"},
	{"sim.launch_ns_per_warp_instr", "ns", "ns_per_warp_instr ~1:1"},
	{"sim.warp_instrs", "count", "modelled work: identical across simulator-speed changes"},
	{"sim.thread_instrs", "count", "modelled work: identical across simulator-speed changes"},
	{"sim.cycles", "count", "modelled work: identical across simulator-speed changes"},
	{"exec.compile_us", "us", "warpd_hot setup_s, fig9_serial (small share); exec.Compile per launched program"},
	{"core.replays", "count", "modelled (Stats.ReplayEnq); moves only on a model change"},
	{"core.redundant_ops", "count", "modelled (Stats.RedundantOps); moves only on a model change"},
	{"core.coverage", "ratio", "modelled: verified / eligible thread-instructions"},
	{"cache.l1_hit_ratio", "ratio", "modelled (Stats.L1Hits)"},
	{"cache.l2_hit_ratio", "ratio", "modelled (Stats.L2Hits)"},
	{"mem.global_accesses", "count", "modelled (Stats.GlobalAccesses)"},
	{"mem.shared_accesses", "count", "modelled (Stats.SharedAccesses)"},
	{"asm.assemble_us", "us", "warpd_hot setup_s; asm.AssembleNamed on the workload's sources"},
	{"verify.check_ms", "ms", "warpd_hot setup_s; verify.Check on the workload's sources"},
	{"service.submit_us", "us", "warpd_hot latency_p50_ms, jobs_per_s; worker handler self time"},
	{"service.status_us", "us", "warpd_hot latency_p50_ms, jobs_per_s; worker handler self time"},
	{"service.result_us", "us", "warpd_hot latency_p50_ms, jobs_per_s; worker handler self time"},
	{"service.spec_key_us", "us", "warpd_hot latency_p50_ms; service.SpecKey"},
	{"service.exec_ms", "ms", "cluster_campaign latency_p50_ms, jobs_per_s; warpd_hot setup_s; mean runner.task_latency_ms"},
	{"service.queue_wait_ms", "ms", "cluster_campaign latency_tail_ms; mean service.job_latency_ms - service.exec_ms"},
	{"service.lru_hit_ratio", "ratio", "warpd_hot latency_tail_ms; LRU hits / submissions in the window"},
	{"service.jobs_failed", "count", "success_ratio"},
	{"service.jobs_rejected", "count", "success_ratio"},
	{"store.get_us", "us", "warpd_hot latency_tail_ms; store.Get into a scratch store"},
	{"store.put_us", "us", "cluster_campaign latency_p50_ms, warpd_hot setup_s; store.Put into a scratch store"},
	{"store.hits", "count", "store.hits_total over every registry"},
	{"store.writes", "count", "store.writes_total over every registry"},
	{"cluster.submit_us", "us", "cluster_campaign latency_p50_ms, jobs_per_s; coordinator handler self time"},
	{"cluster.status_us", "us", "cluster_campaign latency_p50_ms, jobs_per_s; coordinator handler self time"},
	{"cluster.result_us", "us", "cluster_campaign latency_p50_ms, jobs_per_s; coordinator handler self time"},
	{"cluster.dispatch_overhead_ms", "ms", "cluster_campaign latency_p50_ms; client latency - worker service.job_latency_ms"},
	{"cluster.worker_polls_per_job", "count", "cluster_campaign latency_p50_ms; coordinator status polls to workers per job"},
	{"cluster.redispatches", "count", "cluster_campaign; should be 0"},
	{"cluster.hedges", "count", "cluster_campaign; should be 0 (hedging off)"},
	{"client.polls_per_job", "count", "cluster_campaign latency_p50_ms; benchmark client status polls per job"},
	{"client.rtt_us", "us", "warpd_hot latency_p50_ms; client request time - server handler time"},
}

// layerValues are the per-layer metrics a traced run measured; absent
// names are layers the workload bypasses.
type layerValues map[string]float64

// perLayer turns measured values into the result's metric list.
func perLayer(v layerValues) []metric {
	out := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = metric{lm.name, lm.unit, v[lm.name]}
	}
	return out
}

// reportTrace prints the layer table and the tracing overhead, and
// writes the spans as a Chrome trace beside the run's other output.
func reportTrace(e *env, workload string, untraced, traced []metric, v layerValues, spans []span, dropped int64) {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics (%s, seed %d, traced window; %d spans kept, %d dropped):\n",
		workload, e.seed, len(spans), dropped)
	for _, lm := range layerMetrics {
		if val, ok := v[lm.name]; ok {
			fmt.Fprintf(&b, "  %-30s %14s %-5s -> %s\n", lm.name, strconv.FormatFloat(val, 'g', 6, 64), lm.unit, lm.moves)
		} else {
			fmt.Fprintf(&b, "  %-30s %14s %-5s    not measured: %s\n", lm.name, "-", lm.unit, notMeasured(workload, lm.name))
		}
	}
	known := map[string]bool{}
	for _, lm := range layerMetrics {
		known[lm.name] = true
	}
	var extra []string
	for name := range v {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "  %-30s %14s       (diagnostic, not in the result)\n", name, strconv.FormatFloat(v[name], 'g', 6, 64))
	}
	fmt.Fprintf(&b, "tracing overhead (traced window vs untraced window of the same run):\n")
	overhead := map[string]float64{}
	for i, m := range untraced {
		t := traced[i].value
		pct := 0.0
		if m.value != 0 {
			pct = 100 * (t - m.value) / m.value
		}
		overhead[m.name] = pct
		fmt.Fprintf(&b, "  %-20s untraced %12.4f  traced %12.4f %-5s  %+7.2f%%\n", m.name, m.value, t, m.unit, pct)
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, e.seed))
	meta := map[string]any{"workload": workload, "seed": e.seed, "layers": v,
		"tracing_overhead_pct": overhead, "spans_dropped": dropped}
	if err := writeChromeTrace(path, spans, meta); err != nil {
		fmt.Fprintf(&b, "trace file: %v\n", err)
	} else {
		fmt.Fprintf(&b, "trace file: %s\n", path)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// notMeasured says why a workload reports no value (0 in the result)
// for a layer metric.
func notMeasured(workload, name string) string {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case workload == "warpd_hot" && strings.HasPrefix(name, "sim.launch"):
		return "runs inside the worker during set-up, not observable from outside (see service.exec_ms)"
	case workload == "warpd_hot" && layer == "kernels":
		return "inline jobs have no Build or Check"
	default:
		return "bypassed by this workload"
	}
}

// spanSelf sums the self time and counts the spans of one layer and
// name ("" matches any name).
func spanSelf(spans []span, self map[int64]time.Duration, layer, name string) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.layer == layer && (name == "" || s.name == name) {
			total += self[s.id]
			n++
		}
	}
	return total, n
}

// meanSelfUS is the mean self time in µs of matching spans, and
// whether any matched.
func meanSelfUS(spans []span, self map[int64]time.Duration, layer, name string) (float64, bool) {
	total, n := spanSelf(spans, self, layer, name)
	if n == 0 {
		return 0, false
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n), true
}

// setIf stores a value only when it was measured.
func (v layerValues) setIf(name string, val float64, ok bool) {
	if ok {
		v[name] = val
	}
}

// addStatsCounts adds the modelled counts of sts, divided by per (1 for
// a per-pass total, the job count for a per-job mean).
func (v layerValues) addStatsCounts(sts []*stats.Stats, per float64) {
	var t stats.Stats
	for _, st := range sts {
		t.Merge(st)
	}
	var cycles int64
	for _, st := range sts {
		cycles += st.Cycles
	}
	sum3 := func(a [3]int64) int64 { return a[0] + a[1] + a[2] }
	v["sim.warp_instrs"] = float64(t.WarpInstrs) / per
	v["sim.thread_instrs"] = float64(t.ThreadInstrs) / per
	v["sim.cycles"] = float64(cycles) / per
	v["core.replays"] = float64(t.ReplayEnq) / per
	v["core.redundant_ops"] = float64(sum3(t.RedundantOps)) / per
	v["core.coverage"] = t.Coverage()
	v["cache.l1_hit_ratio"] = ratio(t.L1Hits, t.L1Hits+t.L1Misses)
	v["cache.l2_hit_ratio"] = ratio(t.L2Hits, t.L2Hits+t.L2Misses)
	v["mem.global_accesses"] = float64(t.GlobalAccesses) / per
	v["mem.shared_accesses"] = float64(t.SharedAccesses) / per
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeInputs are a workload's own inputs to the layer probes.
type probeInputs struct {
	progs    []*isa.Program    // launched programs (exec.Compile)
	verify   bool              // the workload's path runs verify.Check on them
	sources  map[string]string // program name -> assembly text (asm.AssembleNamed)
	specs    []*service.JobSpec
	payloads [][]byte // result payloads for the scratch store
	cfg      arch.Config
}

// probeBudget bounds the wall time of one probe.
const probeBudget = 300 * time.Millisecond

// timeEach calls fn(i) for i = 0, 1, ... at least once per input and
// until the budget is spent, returning the mean call time.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	calls := 0
	for time.Since(start) < probeBudget || calls < n {
		if err := fn(calls % n); err != nil {
			return 0, err
		}
		calls++
	}
	return time.Since(start) / time.Duration(calls), nil
}

// probeLayers times the public entry points of the inner layers on the
// workload's own inputs. Every probe runs after the traced window.
func probeLayers(e *env, in probeInputs, v layerValues) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	if len(in.progs) > 0 {
		d, err := timeEach(len(in.progs), func(i int) error { _, err := exec.Compile(in.progs[i]); return err })
		if err != nil {
			return fmt.Errorf("probe exec.Compile: %w", err)
		}
		v["exec.compile_us"] = us(d)
	}
	if in.verify {
		d, _ := timeEach(len(in.progs), func(i int) error { verify.Check(in.progs[i]); return nil })
		v["verify.check_ms"] = us(d) / 1e3
	}
	if len(in.sources) > 0 {
		names := make([]string, 0, len(in.sources))
		for n := range in.sources {
			names = append(names, n)
		}
		sort.Strings(names)
		d, err := timeEach(len(names), func(i int) error {
			_, err := asm.AssembleNamed(names[i], in.sources[names[i]])
			return err
		})
		if err != nil {
			return fmt.Errorf("probe asm.AssembleNamed: %w", err)
		}
		v["asm.assemble_us"] = us(d)
	}
	if len(in.specs) > 0 {
		d, err := timeEach(len(in.specs), func(i int) error { _, _, err := service.SpecKey(in.specs[i]); return err })
		if err != nil {
			return fmt.Errorf("probe service.SpecKey: %w", err)
		}
		v["service.spec_key_us"] = us(d)
	}
	if len(in.payloads) > 0 {
		st, err := store.Open(store.Options{Dir: filepath.Join(e.workDir, "probe-store")})
		if err != nil {
			return fmt.Errorf("probe store: %w", err)
		}
		// Content addressing makes a re-put a no-op, so every put
		// gets a fresh key.
		var keys []string
		d, err := timeEach(len(in.payloads), func(i int) error {
			sum := sha256.Sum256([]byte(fmt.Sprintf("probe-%d", len(keys))))
			key := hex.EncodeToString(sum[:])
			keys = append(keys, key)
			return st.Put(key, in.payloads[i])
		})
		if err != nil {
			return fmt.Errorf("probe store.Put: %w", err)
		}
		v["store.put_us"] = us(d)
		d, err = timeEach(len(keys), func(i int) error {
			if _, ok := st.Get(keys[i]); !ok {
				return fmt.Errorf("probe store.Get: key %s missing", keys[i])
			}
			return nil
		})
		if err != nil {
			return err
		}
		v["store.get_us"] = us(d)
	}
	for _, mb := range []int{2, 64} {
		d, err := timeEach(4, func(int) error { _, err := sim.New(in.cfg, mb<<20); return err })
		if err != nil {
			return fmt.Errorf("probe sim.New: %w", err)
		}
		v[fmt.Sprintf("probe.sim_new_%dmb_ms", mb)] = us(d) / 1e3
	}
	return nil
}

// bundledSources maps each bundled kernel name to its assembly text.
func bundledSources(progs []*isa.Program) map[string]string {
	all := map[string]string{}
	for _, s := range kernels.Sources() {
		all[s.Name] = s.Src
	}
	out := map[string]string{}
	for _, p := range progs {
		if src, ok := all[p.Name]; ok {
			out[p.Name] = src
		}
	}
	return out
}

// median and percentile use the nearest-rank method on a copy.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// tailBeyond is the number of samples above the q-th percentile.
func tailBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// serviceLayers derives the span and registry metrics of a service
// window: handler self times per route, client polls and round trips,
// worker execution and queueing, store and cluster counters.
func serviceLayers(spans []span, w *windowResult) layerValues {
	self := selfTimes(spans)
	v := layerValues{}
	for _, r := range []string{"submit", "status", "result"} {
		val, ok := meanSelfUS(spans, self, "service", r)
		v.setIf("service."+r+"_us", val, ok)
		val, ok = meanSelfUS(spans, self, "cluster", r)
		v.setIf("cluster."+r+"_us", val, ok)
	}
	var clientLat, rtt []float64
	polls, workerPolls, dispatches := 0, 0, 0
	byParent := map[int64]span{}
	for _, s := range spans {
		if s.parent != 0 && (s.layer == "service" || s.layer == "cluster") {
			byParent[s.parent] = s
		}
	}
	for _, s := range spans {
		switch {
		case s.layer == "client" && s.name == "job":
			clientLat = append(clientLat, ms(s.dur()))
		case s.layer == "client" && s.name == "status":
			polls++
		case s.layer == "cluster.client" && s.name == "status":
			workerPolls++
		case s.layer == "cluster.client" && s.name == "submit":
			dispatches++
		}
		if s.layer == "client" && s.name != "job" {
			if srv, ok := byParent[s.id]; ok {
				rtt = append(rtt, float64((s.dur()-srv.dur()).Nanoseconds())/1e3)
			}
		}
	}
	if len(clientLat) > 0 {
		v["client.polls_per_job"] = float64(polls) / float64(len(clientLat))
	}
	if len(rtt) > 0 {
		v["client.rtt_us"] = mean(rtt)
	}

	// Registries: the first snapshot is the coordinator's (or the only
	// worker's); sum the rest.
	delta := func(name string) (total int64) {
		for i := range w.after {
			total += w.after[i].Counters[name] - w.before[i].Counters[name]
		}
		return total
	}
	histMean := func(name string) (float64, bool) {
		var sum, n int64
		for i := range w.after {
			a, b := w.after[i].Histograms[name], w.before[i].Histograms[name]
			if w.histsFromStart {
				b = metrics.HistogramValue{}
			}
			sum += a.Sum - b.Sum
			n += a.Count - b.Count
		}
		if n == 0 {
			return 0, false
		}
		return float64(sum) / float64(n), true
	}
	execMS, ok := histMean("runner.task_latency_ms")
	v.setIf("service.exec_ms", execMS, ok)
	if jobMS, ok := histMean("service.job_latency_ms"); ok {
		v["service.queue_wait_ms"] = jobMS - execMS
		if dispatches > 0 {
			v["cluster.dispatch_overhead_ms"] = mean(clientLat) - jobMS
		}
	}
	if sub := delta("service.jobs_submitted_total"); sub > 0 {
		// Store hits also count as service cache hits; the rest came
		// from the LRU.
		lru := delta("service.cache_hits_total") - workerStoreHits(w)
		v["service.lru_hit_ratio"] = float64(lru) / float64(sub)
	}
	v["service.jobs_failed"] = float64(delta("service.jobs_failed_total"))
	v["service.jobs_rejected"] = float64(delta("service.jobs_rejected_total"))
	v["store.hits"] = float64(delta("store.hits_total"))
	v["store.writes"] = float64(delta("store.writes_total"))
	if dispatches > 0 {
		v["cluster.worker_polls_per_job"] = float64(workerPolls) / float64(dispatches)
		v["cluster.redispatches"] = float64(delta("cluster.redispatches_total"))
		v["cluster.hedges"] = float64(delta("cluster.hedges_fired_total"))
	}
	return v
}

// workerStoreHits counts store hits in the window on registries that
// carry service metrics (the workers').
func workerStoreHits(w *windowResult) int64 {
	var n int64
	for i := range w.after {
		if _, ok := w.after[i].Counters["service.jobs_submitted_total"]; ok {
			n += w.after[i].Counters["store.hits_total"] - w.before[i].Counters["store.hits_total"]
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
