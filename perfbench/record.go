package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runRecord is the diagnostic record of one run: the machine, the seed,
// and host steal and process CPU time beside wall time. None of it is a
// gated metric; it explains a noisy run.
type runRecord struct {
	workload   *workloadSpec
	env        *env
	startSteal float64
	startCPU   float64
	start      time.Time
}

func startRecord(w *workloadSpec, e *env) *runRecord {
	return &runRecord{workload: w, env: e, startSteal: hostStealSeconds(),
		startCPU: processCPUSeconds(), start: time.Now()}
}

// finish writes the record to standard error and beside the traces.
func (r *runRecord) finish(out *outcome) {
	rec := map[string]any{
		"workload":        r.workload,
		"seed":            r.env.seed,
		"seconds":         r.env.window.Seconds(),
		"trace":           r.env.trace,
		"cpu_model":       cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"wall_s":          time.Since(r.start).Seconds(),
		"steal_s":         hostStealSeconds() - r.startSteal,
		"process_cpu_s":   processCPUSeconds() - r.startCPU,
		"process_start_s": r.start.Sub(r.env.t0).Seconds(),
	}
	if out != nil {
		for k, v := range out.notes {
			rec[k] = v
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "run record: %s\n", data)
}

// hostStealSeconds reads the machine-wide steal time from /proc/stat
// (field 8 of the cpu line, in USER_HZ ticks); 0 where unavailable.
func hostStealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / 100
		}
	}
	return 0
}

// processCPUSeconds is user plus system CPU time of this process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB
// on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
