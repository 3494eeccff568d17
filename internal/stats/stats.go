// Package stats collects the measurements the paper's figures are
// built from: active-thread-count breakdowns (Fig. 1), instruction-type
// breakdowns (Fig. 5), instruction-type run lengths (Fig. 8a), RAW
// dependency distances (Fig. 8b), DMR coverage counters (Fig. 9a), and
// cycle/stall accounting (Fig. 9b, 10, 11).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"warped/internal/isa"
)

// ActiveBuckets are the Fig. 1 histogram buckets for the number of
// active threads in an issued warp instruction.
var ActiveBuckets = []string{"1", "2-11", "12-21", "22-31", "32"}

// ActiveBucket maps an active-thread count (1..32) to its bucket index.
func ActiveBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 11:
		return 1
	case n <= 21:
		return 2
	case n <= 31:
		return 3
	default:
		return 4
	}
}

// RunLengths tracks, per unit class, the average number of consecutive
// issue slots occupied by the same instruction type before switching
// (Fig. 8a's "instruction type switching distance").
type RunLengths struct {
	cur    isa.UnitClass
	curLen int
	sum    [3]int64
	count  [3]int64
	seen   bool
}

// Observe records the type of the next issued instruction.
func (r *RunLengths) Observe(u isa.UnitClass) {
	if u == isa.UnitCTRL {
		return // control ops don't occupy SP/SFU/LDST units
	}
	if r.seen && u == r.cur {
		r.curLen++
		return
	}
	if r.seen {
		r.sum[r.cur] += int64(r.curLen)
		r.count[r.cur]++
	}
	r.cur, r.curLen, r.seen = u, 1, true
}

// Flush closes the final run.
func (r *RunLengths) Flush() {
	if r.seen && r.curLen > 0 {
		r.sum[r.cur] += int64(r.curLen)
		r.count[r.cur]++
		r.curLen = 0
		r.seen = false
	}
}

// Mean returns the average run length for a unit class.
func (r *RunLengths) Mean(u isa.UnitClass) float64 {
	if u > isa.UnitLDST || r.count[u] == 0 {
		return 0
	}
	return float64(r.sum[u]) / float64(r.count[u])
}

// RAWTracker histograms the cycle distance between a register write and
// its next read, for one tracked warp (Fig. 8b). Distances are bucketed
// logarithmically by decade boundaries the way the paper plots them.
type RAWTracker struct {
	writeCycle map[isa.Reg]int64
	Distances  map[int64]int64 // distance -> occurrences (capped below)
	maxTracked int64
}

// NewRAWTracker creates a tracker; distances above maxTracked collapse
// into the maxTracked bin (the paper plots 1..200).
func NewRAWTracker(maxTracked int64) *RAWTracker {
	if maxTracked <= 0 {
		maxTracked = 200
	}
	return &RAWTracker{
		writeCycle: make(map[isa.Reg]int64),
		Distances:  make(map[int64]int64),
		maxTracked: maxTracked,
	}
}

// Write records that reg was written at the given cycle.
func (t *RAWTracker) Write(reg isa.Reg, cycle int64) { t.writeCycle[reg] = cycle }

// Read records a read; if the register has a pending write the distance
// is histogrammed and the pending write is cleared (first-use distance,
// which is what bounds ReplayQ stalls).
func (t *RAWTracker) Read(reg isa.Reg, cycle int64) {
	w, ok := t.writeCycle[reg]
	if !ok {
		return
	}
	delete(t.writeCycle, reg)
	d := cycle - w
	if d < 1 {
		d = 1
	}
	if d > t.maxTracked {
		d = t.maxTracked
	}
	t.Distances[d]++
}

// FractionAtLeast returns the fraction of recorded RAW distances that
// are at least n cycles.
func (t *RAWTracker) FractionAtLeast(n int64) float64 {
	var total, ge int64
	for d, c := range t.Distances {
		total += c
		if d >= n {
			ge += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ge) / float64(total)
}

// Min returns the smallest observed distance (0 if none).
func (t *RAWTracker) Min() int64 {
	var min int64
	for d := range t.Distances {
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}

// Stats is the full measurement set for one simulation run.
type Stats struct {
	Cycles       int64 // kernel execution cycles (max over SMs)
	SMCycles     []int64
	WarpInstrs   int64 // issued warp-instructions (excl. DMR replays)
	ThreadInstrs int64 // executed thread-instructions (sum of active lanes)

	// Fig. 1: issue slots bucketed by active thread count.
	ActiveHist [5]int64

	// Fig. 5: issue slots per unit class (SP, SFU, LDST).
	TypeHist [3]int64

	// Fig. 8a.
	Runs RunLengths

	// Fig. 8b: one tracked warp's RAW distances (nil if not enabled).
	RAW *RAWTracker

	// Warped-DMR coverage accounting (Fig. 9a).
	VerifiedIntra int64 // thread-instructions verified by intra-warp DMR
	VerifiedInter int64 // thread-instructions verified by inter-warp DMR
	EligibleTI    int64 // thread-instructions eligible for DMR (non-CTRL)

	// Selective-protection accounting (docs/POLICIES.md). Skipped
	// instructions remain in EligibleTI, so Coverage() reflects the
	// policy's choices. sim's checkSM fails a launch whose SMs break
	// this or another accounting invariant.
	ProtectedTI int64 // thread-instructions the protection policy admitted
	SkippedTI   int64 // thread-instructions the protection policy skipped

	// Warped-DMR overhead accounting (Fig. 9b).
	StallReplayQFull int64 // stalls because ReplayQ was full, same type
	StallRAWUnverif  int64 // stalls to verify a RAW-depended entry
	ReplayCoexec     int64 // replays co-executed on idle units (free)
	ReplayEnq        int64 // instructions buffered in the ReplayQ
	ReplayIdleDrain  int64 // entries drained on idle issue cycles

	// DMTR baseline accounting.
	DMTRSlots int64 // issue slots consumed by full temporal replays

	// Per-unit dynamic instruction counts for the power model (Fig. 11),
	// including redundant executions.
	UnitOps        [3]int64 // primary executions per unit class
	RedundantOps   [3]int64 // redundant (verification) executions
	RegFileReads   int64
	RegFileWrites  int64
	SharedAccesses int64
	GlobalAccesses int64

	// IdleIssueSlots counts scheduler cycles with nothing to issue
	// (the slack inter-warp DMR replays soak up).
	IdleIssueSlots int64

	// RegBankConflicts counts extra register-fetch cycles charged when
	// an instruction's source operands collide in a register bank.
	RegBankConflicts int64

	// Cache behaviour (segment-granular: one probe per coalesced
	// 128 B transaction).
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64

	// Fault-injection accounting (extension experiments).
	FaultsActivated int64 // corrupted values produced
	FaultsDetected  int64 // mismatches flagged by DMR comparators
}

// Coverage returns the fraction (0..1) of eligible thread-instructions
// verified by either DMR mechanism.
func (s *Stats) Coverage() float64 {
	if s.EligibleTI == 0 {
		return 0
	}
	return float64(s.VerifiedIntra+s.VerifiedInter) / float64(s.EligibleTI)
}

// ProtectedFraction returns the fraction (0..1) of eligible
// thread-instructions the protection policy admitted for verification.
// Under the default Full policy this is 1 whenever anything was
// eligible.
func (s *Stats) ProtectedFraction() float64 {
	if s.EligibleTI == 0 {
		return 0
	}
	return float64(s.ProtectedTI) / float64(s.EligibleTI)
}

// IPC returns warp-instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WarpInstrs) / float64(s.Cycles)
}

// ActiveFractions returns the Fig. 1 bucket fractions (sum 1.0).
func (s *Stats) ActiveFractions() [5]float64 {
	var out [5]float64
	var total int64
	for _, v := range s.ActiveHist {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range s.ActiveHist {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// TypeFractions returns the Fig. 5 unit-class fractions (sum 1.0).
func (s *Stats) TypeFractions() [3]float64 {
	var out [3]float64
	var total int64
	for _, v := range s.TypeHist {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range s.TypeHist {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// MergeSerial folds the stats of a subsequent back-to-back launch into
// s: identical to Merge except that cycles accumulate, because the
// launches executed one after another on the same simulated chip. Use
// Merge for parallel shards (per-SM stats of one launch, where the
// slowest shard bounds the kernel), MergeSerial for sequenced launches
// of a multi-kernel workload.
func (s *Stats) MergeSerial(o *Stats) {
	cycles := s.Cycles + o.Cycles
	s.Merge(o)
	s.Cycles = cycles
}

// Merge folds another SM-local Stats into s (cycles take the max; the
// RAW tracker is taken from the first contributor that has one).
func (s *Stats) Merge(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.SMCycles = append(s.SMCycles, o.SMCycles...)
	s.WarpInstrs += o.WarpInstrs
	s.ThreadInstrs += o.ThreadInstrs
	for i := range s.ActiveHist {
		s.ActiveHist[i] += o.ActiveHist[i]
	}
	for i := range s.TypeHist {
		s.TypeHist[i] += o.TypeHist[i]
	}
	for i := range s.Runs.sum {
		s.Runs.sum[i] += o.Runs.sum[i]
		s.Runs.count[i] += o.Runs.count[i]
	}
	if s.RAW == nil {
		s.RAW = o.RAW
	}
	s.VerifiedIntra += o.VerifiedIntra
	s.VerifiedInter += o.VerifiedInter
	s.EligibleTI += o.EligibleTI
	s.ProtectedTI += o.ProtectedTI
	s.SkippedTI += o.SkippedTI
	s.StallReplayQFull += o.StallReplayQFull
	s.StallRAWUnverif += o.StallRAWUnverif
	s.ReplayCoexec += o.ReplayCoexec
	s.ReplayEnq += o.ReplayEnq
	s.ReplayIdleDrain += o.ReplayIdleDrain
	s.DMTRSlots += o.DMTRSlots
	for i := range s.UnitOps {
		s.UnitOps[i] += o.UnitOps[i]
		s.RedundantOps[i] += o.RedundantOps[i]
	}
	s.RegFileReads += o.RegFileReads
	s.RegFileWrites += o.RegFileWrites
	s.SharedAccesses += o.SharedAccesses
	s.GlobalAccesses += o.GlobalAccesses
	s.IdleIssueSlots += o.IdleIssueSlots
	s.RegBankConflicts += o.RegBankConflicts
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.FaultsActivated += o.FaultsActivated
	s.FaultsDetected += o.FaultsDetected
}

// Table is a simple text table renderer used by the experiment
// harnesses to print paper-figure data.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedDistances returns a RAW tracker's (distance, count) pairs in
// ascending distance order; helper for rendering Fig. 8b.
func SortedDistances(t *RAWTracker) (ds []int64, cs []int64) {
	for d := range t.Distances {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	for _, d := range ds {
		cs = append(cs, t.Distances[d])
	}
	return ds, cs
}
