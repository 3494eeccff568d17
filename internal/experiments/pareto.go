package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/verify"
)

// ParetoSpec configures a coverage-vs-overhead policy sweep.
type ParetoSpec struct {
	// Policies are the selective-protection policies to sweep. Empty
	// means DefaultParetoPolicies().
	Policies []arch.Policy

	// Trials is the number of fault-injection runs per (benchmark,
	// policy) cell used to measure empirical detection; 0 skips the
	// campaign and reports coverage/overhead only.
	Trials int

	// Seed drives the campaign fault draws. Each benchmark derives its
	// fault sequence from (Seed, Trials) alone, so every policy sees the
	// same faults and detection rates are directly comparable.
	Seed int64

	// Synth adds a vulnerability-synthesized section to the sweep: for
	// every benchmark (the Table 4 suite plus the extras), the policy
	// SynthesizePolicy derives from the static unACE analysis of its
	// kernels, paired with a full-protection point of the same benchmark
	// so the two are directly comparable. With Trials > 0 both points
	// run the campaign on identical fault sequences.
	Synth bool
}

// DefaultParetoPolicies returns the sweep the Pareto figure plots by
// default: the full/off endpoints plus the sampling and utilization
// policies between them.
func DefaultParetoPolicies() []arch.Policy {
	return []arch.Policy{
		{Kind: arch.PolicyFull},
		{Kind: arch.PolicyWarpSample, SampleN: 2},
		{Kind: arch.PolicyWarpSample, SampleN: 4},
		{Kind: arch.PolicyActiveMask, MinActive: 16},
		{Kind: arch.PolicyOff},
	}
}

// ParetoPoint is one (benchmark, policy) cell of the sweep: what the
// policy bought (coverage, detection) and what it cost (overhead).
type ParetoPoint struct {
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`    // ParsePolicy spelling
	Coverage  float64 `json:"coverage"`  // verified / eligible thread-instrs
	Protected float64 `json:"protected"` // policy-admitted / eligible
	Overhead  float64 `json:"overhead"`  // cycles / DMR-off cycles - 1

	Cycles     int64 `json:"cycles"`
	BaseCycles int64 `json:"base_cycles"` // DMR-off cycles, same benchmark

	// Campaign outcomes (Trials > 0 only).
	Trials    int     `json:"trials,omitempty"`
	Activated int     `json:"activated,omitempty"`
	Detected  int     `json:"detected,omitempty"`
	Detection float64 `json:"detection,omitempty"` // detected / activated
}

// ParetoResult is the full sweep: for every Table 4 benchmark, one
// point per policy, in (benchmark-major, policy-minor) order.
type ParetoResult struct {
	Names    []string // benchmarks, paper order
	Policies []arch.Policy
	Points   []ParetoPoint // len(Names) * len(Policies)
	Trials   int
	Seed     int64

	// Synth is the vulnerability-synthesized section (ParetoSpec.Synth):
	// two points per benchmark of SynthNames — full protection, then the
	// policy synthesized from the static unACE analysis — over the
	// Table 4 suite plus the extras.
	SynthNames []string
	Synth      []ParetoPoint // len(SynthNames) * 2
}

// Point returns the cell for benchmark bi and policy pi.
func (r *ParetoResult) Point(bi, pi int) *ParetoPoint {
	return &r.Points[bi*len(r.Policies)+pi]
}

// Pareto sweeps the selective-protection policies over every Table 4
// benchmark and reports, per (benchmark, policy) cell, the coverage the
// policy retains and the cycle overhead it pays — the axes of a
// coverage-vs-overhead Pareto plot (docs/POLICIES.md, "Choosing a
// policy"). Overhead is measured against a DMR-off run of the same
// benchmark; with spec.Trials > 0 each cell also runs the
// fault-injection campaign, with identical fault sequences across
// policies. Output is byte-identical at any worker count.
func (e *Engine) Pareto(ctx context.Context, spec ParetoSpec) (*ParetoResult, error) {
	policies := spec.Policies
	if len(policies) == 0 {
		policies = DefaultParetoPolicies()
	}
	for i, p := range policies {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: pareto policy %d: %w", i, err)
		}
	}

	bs := kernels.All()
	points, err := e.sweep(ctx, bs, func(int) []arch.Policy { return policies }, spec.Trials, spec.Seed)
	if err != nil {
		return nil, err
	}
	r := &ParetoResult{Names: benchNames(bs), Policies: policies, Points: points, Trials: spec.Trials, Seed: spec.Seed}

	if spec.Synth {
		bs := append(append([]*kernels.Benchmark{}, kernels.All()...), kernels.Extras()...)
		synth, err := synthesized(bs)
		if err != nil {
			return nil, err
		}
		full := arch.Policy{Kind: arch.PolicyFull}
		r.SynthNames = benchNames(bs)
		r.Synth, err = e.sweep(ctx, bs, func(bi int) []arch.Policy { return []arch.Policy{full, synth[bi]} }, spec.Trials, spec.Seed)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// synthesized returns, per benchmark of bs, the policy SynthesizePolicy
// derives from the static unACE analysis of its kernels: the first
// non-full policy among them, or full when every kernel is fully ACE.
func synthesized(bs []*kernels.Benchmark) ([]arch.Policy, error) {
	policies := make([]arch.Policy, len(bs))
	for bi, b := range bs {
		policies[bi] = arch.Policy{Kind: arch.PolicyFull}
		progs, err := b.Programs()
		if err != nil {
			return nil, fmt.Errorf("experiments: synth sweep %s: %w", b.Name, err)
		}
		for _, p := range progs {
			rep, err := verify.AnalyzeVuln(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: synth sweep %s: kernel %s: %w", b.Name, p.Name, err)
			}
			if pol := arch.SynthesizePolicy(p.Name, len(p.Instrs), rep.UnACEPCs()); pol.Kind != arch.PolicyFull {
				policies[bi] = pol
				break
			}
		}
	}
	return policies, nil
}

// sweep measures Pareto cells: for every benchmark bi of bs, one point
// per policy of policies(bi), in (benchmark-major, policy-minor) order.
// Each benchmark's DMR-off overhead baseline and its cells — the
// recommended Warped-DMR machine with the policy armed — fan out as one
// grid. With trials > 0 every cell then runs the fault-injection
// campaign; CampaignConfig draws a benchmark's fault sequence from
// (trials, seed) alone, so every policy of it sees the same faults.
func (e *Engine) sweep(ctx context.Context, bs []*kernels.Benchmark, policies func(bi int) []arch.Policy, trials int, seed int64) ([]ParetoPoint, error) {
	type cell struct {
		bi   int
		cfg  arch.Config
		base bool // the benchmark's DMR-off baseline, not a point
	}
	var cells []cell
	for bi := range bs {
		cells = append(cells, cell{bi, arch.PaperConfig(), true})
		for _, p := range policies(bi) {
			cfg := arch.WarpedDMRConfig()
			cfg.Policy = p
			cells = append(cells, cell{bi, cfg, false})
		}
	}
	res, err := runner.Map(ctx, e.pool(), len(cells), func(ctx context.Context, i int) (*stats.Stats, error) {
		st, _, err := kernels.Attempt(ctx, cells[i].cfg, bs[cells[i].bi], sim.LaunchOpts{Metrics: e.Metrics}, true)
		return st, err
	})
	if err != nil {
		return nil, err
	}

	var points []ParetoPoint
	var base *stats.Stats
	for i, c := range cells {
		st := res[i]
		if c.base {
			base = st
			continue
		}
		pt := ParetoPoint{
			Benchmark:  bs[c.bi].Name,
			Policy:     c.cfg.Policy.String(),
			Coverage:   st.Coverage(),
			Protected:  st.ProtectedFraction(),
			Cycles:     st.Cycles,
			BaseCycles: base.Cycles,
		}
		if base.Cycles > 0 {
			pt.Overhead = float64(st.Cycles)/float64(base.Cycles) - 1
		}
		if trials > 0 {
			// Each campaign already fans its trials out across the pool.
			camp, err := e.CampaignConfig(ctx, pt.Benchmark, c.cfg, trials, seed)
			if err != nil {
				return nil, err
			}
			pt.Trials = camp.Runs
			pt.Activated = camp.Activated
			pt.Detected = camp.Detected
			pt.Detection = camp.DetectionRate()
		}
		points = append(points, pt)
	}
	return points, nil
}

// Table renders the sweep, one row per (benchmark, policy) cell.
func (r *ParetoResult) Table() *stats.Table {
	headers := []string{"benchmark", "policy", "coverage", "protected", "overhead"}
	if r.Trials > 0 {
		headers = append(headers, "trials", "activated", "detected", "detection")
	}
	t := &stats.Table{
		Title:   "Pareto sweep: DMR coverage vs cycle overhead per protection policy",
		Headers: headers,
	}
	addPoint := func(p *ParetoPoint) {
		row := []string{p.Benchmark, p.Policy, pct(p.Coverage), pct(p.Protected), pct(p.Overhead)}
		if r.Trials > 0 {
			row = append(row,
				fmt.Sprintf("%d", p.Trials),
				fmt.Sprintf("%d", p.Activated),
				fmt.Sprintf("%d", p.Detected),
				pct(p.Detection))
		}
		t.AddRow(row...)
	}
	for bi := range r.Names {
		for pi := range r.Policies {
			addPoint(r.Point(bi, pi))
		}
	}
	for i := range r.Synth {
		addPoint(&r.Synth[i])
	}
	return t
}

// WriteJSONL streams the sweep as JSON Lines, one point per line — the
// machine-readable companion of Table().CSV() for plotting pipelines.
func (r *ParetoResult) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.Points {
		if err := enc.Encode(&r.Points[i]); err != nil {
			return err
		}
	}
	for i := range r.Synth {
		if err := enc.Encode(&r.Synth[i]); err != nil {
			return err
		}
	}
	return nil
}
