// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed window, checks every answer it times, and prints
// one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload fig9_serial --seed 1 --seconds 30 --trace 0
//
// Workloads (all closed loops driven from this one process):
//
//   - cluster_campaign: two clients submit fresh SHA transient-fault
//     jobs to a coordinator fronting two default-slot workers.
//   - warpd_hot: two clients request Zipf-skewed entries of a warmed
//     inline-kernel catalog from one worker whose LRU is smaller than
//     the catalog.
//   - fig9_serial: the Figure-9a coverage grid through
//     experiments.Engine{Workers: 1}.Fig9a, repeated; registry off. It
//     runs on request but is not in BENCHMARK.json: on a shared 2-vCPU
//     host its run-to-run spread reached the largest bound allowed.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then traced, and the
// result carries the per-layer metrics; the human-readable layer table,
// the tracing overhead and the run record go to standard error, and the
// spans are written as Chrome trace-event JSON under .bench_build/.
// Every input is generated from --seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// workloadSpec is one named workload and what it exercises.
type workloadSpec struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Loop      string   `json:"loop"`
	Clients   int      `json:"clients"`
	Poll      string   `json:"client_poll_interval"`
	Tail      string   `json:"tail_percentile"`
	Exercises []string `json:"exercises"`
	Bypasses  []string `json:"bypasses"`
	run       func(*env) (*outcome, error)
}

var workloads = []workloadSpec{
	{
		Name:      "fig9_serial",
		Why:       "the paper-reproduction path and the headline ns per warp-instruction; nearly all time is sim launches, no service layer, one core idle",
		Loop:      "closed, serial passes of the 33-simulation Figure-9a grid",
		Clients:   1,
		Poll:      "none",
		Tail:      "p95 of per-simulation wall time",
		Exercises: []string{"experiments", "runner", "kernels", "asm (Build assembles)", "sim", "exec", "core", "simt", "mem", "cache"},
		Bypasses:  []string{"verify", "service", "store", "cluster", "client"},
		run:       runFig9,
	},
	{
		Name:      "cluster_campaign",
		Why:       "the fault-campaign job warpd exists for; every job is fresh, so the write path from canonicalise to polled result is timed with both cores busy",
		Loop:      "closed, 2 clients, Submit then Wait",
		Clients:   2,
		Poll:      clusterPoll.String(),
		Tail:      "p90 of submit-to-result latency",
		Exercises: []string{"client", "cluster", "service", "runner", "store", "kernels", "sim", "exec", "core", "simt", "mem", "cache"},
		Bypasses:  []string{"asm", "verify", "LRU hit path", "hedging"},
		run:       runCluster,
	},
	{
		Name:      "warpd_hot",
		Why:       "resubmitted finished points: the read path (parse, canonicalise, hash, LRU or store, JSON) with nothing simulated; its set-up is the inline cold path",
		Loop:      "closed, 2 clients, Submit then Wait, Zipf-skewed over a warmed catalog",
		Clients:   2,
		Poll:      hotPoll.String(),
		Tail:      "p90 of submit-to-result latency",
		Exercises: []string{"client", "service", "store", "window: no simulation", "set-up: asm", "verify", "exec", "sim"},
		Bypasses:  []string{"cluster", "experiments", "kernels host code", "simulation in the timed window"},
		run:       runHot,
	},
}

// env is what a workload run receives.
type env struct {
	seed    int64
	window  time.Duration
	trace   bool
	outDir  string // .bench_build/perfbench: scratch stores and trace files
	t0      time.Time
	workDir string // per-run scratch directory, removed at exit
}

// outcome is what a workload run returns: its end-to-end metrics (or
// per-layer metrics when traced), attempt counts and the answer check.
type outcome struct {
	attempted, failed int64
	metrics           []metric
	notes             map[string]any // extra run-record fields
}

// metric is one named value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// errMismatch marks a failed answer check: the run reports
// correct=false and exits non-zero.
var errMismatch = errors.New("answer mismatch")

func main() {
	t0 := processStart()
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 30, "timed window length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (fig9_serial|cluster_campaign|warpd_hot), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	outDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	workDir, err := os.MkdirTemp(outDir, w.Name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		outDir: outDir, t0: t0, workDir: workDir}

	rec := startRecord(w, e)
	out, runErr := w.run(e)
	_ = os.RemoveAll(workDir)
	rec.finish(out)
	if runErr != nil && !errors.Is(runErr, errMismatch) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, runErr)
		os.Exit(1)
	}
	correct := runErr == nil
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, runErr)
	}
	printResult(correct, out)
	if !correct {
		os.Exit(1)
	}
}

// processStart returns the wall time the process started: run.sh
// exports it in nanoseconds just before exec, so set-up time includes
// runtime and package initialisation. Started some other way, the
// benchmark falls back to the time main began.
func processStart() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0_NS"), 10, 64); err == nil && ns > 0 {
		return time.Unix(0, ns)
	}
	return time.Now()
}

// printResult writes the one-line JSON result the contract asks for.
func printResult(correct bool, out *outcome) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: correct, Metrics: map[string]val{}}
	if out != nil {
		res.Attempted, res.Failed = out.attempted, out.failed
		for _, m := range out.metrics {
			res.Metrics[m.name] = val{m.value, m.unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}
