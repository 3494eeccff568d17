package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"warped/internal/arch"
	"warped/internal/fault"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/verify"
)

// vulnCheckBits are the output bits flipped at each statically-unACE
// PC: both ends of the word plus two interior bits, so a liveness bug
// that only masks low bits (a bad AND/shift transfer) cannot hide.
var vulnCheckBits = []uint{0, 7, 19, 31}

// VulnCheckRow is one kernel's cross-validation outcome.
type VulnCheckRow struct {
	Benchmark string
	Kernel    string

	// Static classification over the kernel's PCs.
	PCs, Eligible, ACE, UnACE, Unknown int

	// Policy is the protection policy synthesized from the unACE PCs.
	Policy string

	// Injections counts fault-injected runs performed (unACE PCs ×
	// vulnCheckBits); Visible counts the injections whose corruption
	// reached the workload's output or its figure-feeding statistics.
	// Any Visible > 0 falsifies the static analysis and fails the run.
	Injections int
	Visible    int

	// SkippedFrac is SkippedTI/EligibleTI with the synthesized policy
	// armed under the recommended Warped-DMR machine (0 when the policy
	// is full: nothing to skip).
	SkippedFrac float64
}

// VulnCheckResult is the static-vs-empirical cross-validation of the
// fault-vulnerability analysis over every bundled benchmark.
type VulnCheckResult struct {
	Rows []VulnCheckRow
}

// VulnCheck cross-validates the static fault-vulnerability analysis
// against targeted fault injection, benchmark by benchmark (the Table 4
// suite plus the extras). For every kernel it runs verify.AnalyzeVuln,
// then corrupts each statically-unACE PC at every dynamic execution
// (all lanes, one bit at a time) and requires the workload to still
// validate against its host reference with statistics identical to a
// fault-free baseline — i.e. the corruption must be invisible to every
// figure the repository generates. It returns an error if any unACE
// claim is falsified. The SkippedFrac column measures what the
// synthesized policy saves under the recommended Warped-DMR machine.
func (e *Engine) VulnCheck(ctx context.Context) (*VulnCheckResult, error) {
	bs := append(append([]*kernels.Benchmark{}, kernels.All()...), kernels.Extras()...)
	vm := metrics.ForVuln(e.Metrics)
	out := &VulnCheckResult{}
	var violations []string
	for _, b := range bs {
		rows, errs, err := e.vulnCheckBenchmark(ctx, b, vm)
		if err != nil {
			return nil, fmt.Errorf("experiments: vulncheck %s: %w", b.Name, err)
		}
		out.Rows = append(out.Rows, rows...)
		violations = append(violations, errs...)
	}
	if len(violations) > 0 {
		return out, fmt.Errorf("experiments: vulncheck: %d statically-unACE PC(s) produced figure-visible corruption:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return out, nil
}

// vulnCheckBenchmark cross-validates one benchmark; it returns one row
// per kernel and a violation message per falsified unACE claim.
func (e *Engine) vulnCheckBenchmark(ctx context.Context, b *kernels.Benchmark, vm *metrics.Vuln) ([]VulnCheckRow, []string, error) {
	progs, err := b.Programs()
	if err != nil {
		return nil, nil, err
	}

	// Fault-free baseline: the statistics every figure derives from.
	// Injection runs must reproduce these exactly.
	baseCfg := arch.PaperConfig()
	_, res, err := e.runGrid(ctx, []*kernels.Benchmark{b}, []arch.Config{baseCfg}, sim.LaunchOpts{})
	if err != nil {
		return nil, nil, fmt.Errorf("fault-free baseline: %w", err)
	}
	baseline := res[0][0]

	type injection struct {
		kernel string
		pc     int
		bit    uint
	}
	var rows []VulnCheckRow
	var jobs []injection
	rowOf := map[string]int{}
	// synthRows[i] is the row whose non-full synthesized policy
	// synthCfgs[i] arms on the recommended Warped-DMR machine.
	var synthRows []int
	var synthCfgs []arch.Config
	for _, p := range progs {
		r, err := verify.AnalyzeVuln(p)
		if err != nil {
			return nil, nil, fmt.Errorf("kernel %s: %w", p.Name, err)
		}
		vm.Analyses.Inc()
		vm.ACEPCs.Add(int64(r.ACE))
		vm.UnACEPCs.Add(int64(r.UnACE))
		vm.UnknownPCs.Add(int64(r.Unknown))
		policy := arch.SynthesizePolicy(p.Name, len(p.Instrs), r.UnACEPCs())
		if policy.Kind != arch.PolicyFull {
			vm.Synthesized.Inc()
			cfg := arch.WarpedDMRConfig()
			cfg.Policy = policy
			synthRows = append(synthRows, len(rows))
			synthCfgs = append(synthCfgs, cfg)
		}
		rowOf[p.Name] = len(rows)
		rows = append(rows, VulnCheckRow{
			Benchmark: b.Name, Kernel: p.Name,
			PCs: len(r.PCs), Eligible: r.EligiblePCs,
			ACE: r.ACE, UnACE: r.UnACE, Unknown: r.Unknown,
			Policy: policy.String(),
		})
		for _, pc := range r.UnACEPCs() {
			for _, bit := range vulnCheckBits {
				jobs = append(jobs, injection{p.Name, pc, bit})
			}
		}
	}

	// Fan the targeted injections out across the pool. visible[i] is a
	// violation message, or "" when the corruption stayed masked.
	visible, err := runner.Map(ctx, e.pool(), len(jobs), func(ctx context.Context, i int) (string, error) {
		job := jobs[i]
		inj := fault.NewPCInjector(job.kernel, job.pc, job.bit)
		st, _, err := kernels.Attempt(ctx, baseCfg, b, sim.LaunchOpts{Fault: inj, Metrics: e.Metrics}, true)
		if err != nil {
			if ctx.Err() != nil {
				return "", err
			}
			return fmt.Sprintf("%s %s pc=%d bit=%d: %v", b.Name, job.kernel, job.pc, job.bit, err), nil
		}
		cp := *st
		cp.FaultsActivated, cp.FaultsDetected = 0, 0
		if !reflect.DeepEqual(&cp, baseline) {
			return fmt.Sprintf("%s %s pc=%d bit=%d: statistics diverged from the fault-free baseline",
				b.Name, job.kernel, job.pc, job.bit), nil
		}
		return "", nil
	})
	if err != nil {
		return nil, nil, err
	}
	var violations []string
	for i, v := range visible {
		job := jobs[i]
		rows[rowOf[job.kernel]].Injections++
		if v != "" {
			rows[rowOf[job.kernel]].Visible++
			violations = append(violations, v)
		}
	}

	// Measure what each non-full synthesized policy actually skips, all
	// of them as one grid.
	_, res, err = e.runGrid(ctx, []*kernels.Benchmark{b}, synthCfgs, sim.LaunchOpts{})
	if err != nil {
		return nil, nil, fmt.Errorf("synthesized-policy run: %w", err)
	}
	for i, ri := range synthRows {
		if st := res[i][0]; st.EligibleTI > 0 {
			rows[ri].SkippedFrac = float64(st.SkippedTI) / float64(st.EligibleTI)
		}
	}
	return rows, violations, nil
}

// Table renders the cross-validation, one row per kernel.
func (r *VulnCheckResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Vulnerability cross-check: static unACE claims vs targeted fault injection",
		Headers: []string{"benchmark", "kernel", "pcs", "eligible", "ace", "unace", "unknown", "policy", "injections", "visible", "skipped"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Kernel,
			fmt.Sprintf("%d", row.PCs),
			fmt.Sprintf("%d", row.Eligible),
			fmt.Sprintf("%d", row.ACE),
			fmt.Sprintf("%d", row.UnACE),
			fmt.Sprintf("%d", row.Unknown),
			row.Policy,
			fmt.Sprintf("%d", row.Injections),
			fmt.Sprintf("%d", row.Visible),
			pct(row.SkippedFrac))
	}
	return t
}
