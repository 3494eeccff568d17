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
// policies. The fault-free grid is one (1+len(policies))×11 fan-out;
// output is byte-identical at any worker count.
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

	// Config 0 is the DMR-off overhead baseline; configs 1..P are the
	// recommended Warped-DMR machine with each policy armed.
	cfgs := make([]arch.Config, 0, len(policies)+1)
	cfgs = append(cfgs, arch.PaperConfig())
	for _, p := range policies {
		cfg := arch.WarpedDMRConfig()
		cfg.Policy = p
		cfgs = append(cfgs, cfg)
	}
	names, res, err := e.runGrid(ctx, cfgs, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}

	r := &ParetoResult{Names: names, Policies: policies, Trials: spec.Trials, Seed: spec.Seed}
	r.Points = make([]ParetoPoint, 0, len(names)*len(policies))
	for bi, name := range names {
		base := res[0][bi]
		for pi, p := range policies {
			st := res[pi+1][bi]
			pt := ParetoPoint{
				Benchmark:  name,
				Policy:     p.String(),
				Coverage:   st.Coverage(),
				Protected:  st.ProtectedFraction(),
				Cycles:     st.Cycles,
				BaseCycles: base.Cycles,
			}
			if base.Cycles > 0 {
				pt.Overhead = float64(st.Cycles)/float64(base.Cycles) - 1
			}
			r.Points = append(r.Points, pt)
		}
	}

	if spec.Trials > 0 {
		// Campaigns run cell by cell — each already fans its trials out
		// across the pool — with the per-benchmark fault sequence shared by
		// every policy (CampaignConfig draws it from (n, seed) alone).
		for bi, name := range names {
			for pi := range policies {
				cfg := cfgs[pi+1]
				c, err := e.CampaignConfig(ctx, name, cfg, spec.Trials, spec.Seed)
				if err != nil {
					return nil, err
				}
				pt := r.Point(bi, pi)
				pt.Trials = c.Runs
				pt.Activated = c.Activated
				pt.Detected = c.Detected
				pt.Detection = c.DetectionRate()
			}
		}
	}

	if spec.Synth {
		bs := append(append([]*kernels.Benchmark{}, kernels.All()...), kernels.Extras()...)
		names, points, err := e.synthSweep(ctx, bs, spec.Trials, spec.Seed)
		if err != nil {
			return nil, err
		}
		r.SynthNames, r.Synth = names, points
	}
	return r, nil
}

// synthSweep runs the vulnerability-synthesized section of the Pareto
// sweep over bs: per benchmark, a full-protection point and a point
// with the policy SynthesizePolicy derives from the static unACE
// analysis of the benchmark's kernels (the first non-full policy among
// them, or full when every kernel is fully ACE). The runGrid fan-out
// only covers the paper suite, so this section runs its own grid —
// benchmarks × {DMR-off, full, synthesized} — through the pool.
func (e *Engine) synthSweep(ctx context.Context, bs []*kernels.Benchmark, trials int, seed int64) ([]string, []ParetoPoint, error) {
	policies := make([]arch.Policy, len(bs))
	names := make([]string, len(bs))
	for bi, b := range bs {
		names[bi] = b.Name
		policies[bi] = arch.Policy{Kind: arch.PolicyFull}
		progs, err := benchPrograms(b)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: synth sweep %s: %w", b.Name, err)
		}
		for _, p := range progs {
			rep, err := verify.AnalyzeVuln(p)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: synth sweep %s: kernel %s: %w", b.Name, p.Name, err)
			}
			if pol := arch.SynthesizePolicy(p.Name, len(p.Instrs), rep.UnACEPCs()); pol.Kind != arch.PolicyFull {
				policies[bi] = pol
				break
			}
		}
	}

	// Fault-free grid: per benchmark a DMR-off overhead baseline, the
	// full-protection reference, and the synthesized policy.
	cfgOf := func(bi, ci int) arch.Config {
		switch ci {
		case 0:
			return arch.PaperConfig()
		case 1:
			return arch.WarpedDMRConfig()
		default:
			cfg := arch.WarpedDMRConfig()
			cfg.Policy = policies[bi]
			return cfg
		}
	}
	res, err := runner.Map(ctx, e.pool(), len(bs)*3, func(ctx context.Context, i int) (*stats.Stats, error) {
		st, _, err := kernels.Attempt(ctx, cfgOf(i/3, i%3), bs[i/3], sim.LaunchOpts{Metrics: e.Metrics}, true)
		return st, err
	})
	if err != nil {
		return nil, nil, err
	}

	points := make([]ParetoPoint, 0, len(bs)*2)
	for bi := range bs {
		base := res[bi*3]
		for ci := 1; ci <= 2; ci++ {
			st := res[bi*3+ci]
			pol := arch.Policy{Kind: arch.PolicyFull}
			if ci == 2 {
				pol = policies[bi]
			}
			pt := ParetoPoint{
				Benchmark:  names[bi],
				Policy:     pol.String(),
				Coverage:   st.Coverage(),
				Protected:  st.ProtectedFraction(),
				Cycles:     st.Cycles,
				BaseCycles: base.Cycles,
			}
			if base.Cycles > 0 {
				pt.Overhead = float64(st.Cycles)/float64(base.Cycles) - 1
			}
			points = append(points, pt)
		}
	}

	if trials > 0 {
		for bi := range bs {
			for ci := 1; ci <= 2; ci++ {
				c, err := e.CampaignConfig(ctx, names[bi], cfgOf(bi, ci), trials, seed)
				if err != nil {
					return nil, nil, err
				}
				pt := &points[bi*2+ci-1]
				pt.Trials = c.Runs
				pt.Activated = c.Activated
				pt.Detected = c.Detected
				pt.Detection = c.DetectionRate()
			}
		}
	}
	return names, points, nil
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
