package kernels

import (
	"context"
	"crypto/sha1"
	"encoding/binary"
	"slices"
	"testing"

	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/isa"
	"warped/internal/sim"
	"warped/internal/stats"
)

// runOne executes a benchmark (with output validation built in) and
// returns its stats.
func runOne(t *testing.T, name string, cfg arch.Config) *stats.Stats {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := Attempt(context.Background(), cfg, b, sim.LaunchOpts{}, true)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAllBenchmarksValidate runs every workload on the plain machine;
// Attempt fails if any output mismatches its host reference.
func TestAllBenchmarksValidate(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			st := runOne(t, b.Name, arch.PaperConfig())
			if st.Cycles <= 0 || st.WarpInstrs <= 0 {
				t.Errorf("implausible stats: %d cycles, %d instrs", st.Cycles, st.WarpInstrs)
			}
		})
	}
}

// TestAllBenchmarksValidateUnderDMR re-runs the suite with full
// Warped-DMR: redundant execution must never change results, and
// fault-free runs must flag zero errors.
func TestAllBenchmarksValidateUnderDMR(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			st := runOne(t, b.Name, arch.WarpedDMRConfig())
			if st.FaultsDetected != 0 {
				t.Errorf("fault-free run flagged %d errors", st.FaultsDetected)
			}
			if c := st.Coverage(); c <= 0 || c > 1 {
				t.Errorf("coverage out of range: %v", c)
			}
			if st.VerifiedIntra+st.VerifiedInter > st.EligibleTI {
				t.Errorf("verified %d exceeds eligible %d",
					st.VerifiedIntra+st.VerifiedInter, st.EligibleTI)
			}
		})
	}
}

// TestWorkloadShapes pins the qualitative properties each benchmark was
// chosen for — the properties every figure depends on.
func TestWorkloadShapes(t *testing.T) {
	shapes := map[string]func(t *testing.T, st *stats.Stats){
		"BFS": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			if f[0]+f[1] < 0.4 {
				t.Errorf("BFS should be dominated by low-occupancy slots, got %v", f)
			}
		},
		"Nqueen": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			if f[4] > 0.2 {
				t.Errorf("Nqueen should rarely run full warps, got %v", f)
			}
		},
		"BitonicSort": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			if f[2] < 0.3 {
				t.Errorf("BitonicSort should spend heavily at ~16 active lanes, got %v", f)
			}
		},
		"MatrixMul": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			if f[4] < 0.99 {
				t.Errorf("MatrixMul warps should be fully utilized, got %v", f)
			}
			ty := st.TypeFractions()
			if ty[2] < 0.3 {
				t.Errorf("unrolled MatrixMul should be load-heavy, got %v", ty)
			}
		},
		"SHA": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			ty := st.TypeFractions()
			if f[4] < 0.99 || ty[0] < 0.8 {
				t.Errorf("SHA should be full-warp SP-heavy, got %v / %v", f, ty)
			}
		},
		"Libor": func(t *testing.T, st *stats.Stats) {
			ty := st.TypeFractions()
			if ty[1] == 0 {
				t.Error("Libor must exercise the SFUs (exp/rcp)")
			}
		},
		"CUFFT": func(t *testing.T, st *stats.Stats) {
			ty := st.TypeFractions()
			if ty[1] == 0 {
				t.Error("CUFFT must exercise the SFUs (twiddles)")
			}
			f := st.ActiveFractions()
			if f[4] > 0.99 {
				t.Error("CUFFT's odd block size should produce partial warps")
			}
		},
		"SCAN": func(t *testing.T, st *stats.Stats) {
			f := st.ActiveFractions()
			if f[0] == 0 || f[1] == 0 {
				t.Errorf("SCAN's tree phases should reach single-digit occupancy, got %v", f)
			}
		},
	}
	for name, check := range shapes {
		st := runOne(t, name, arch.PaperConfig())
		t.Run(name, func(t *testing.T) { check(t, st) })
	}
}

// TestSHA1ReferenceAgainstStdlib validates our host SHA-1 compression
// against crypto/sha1 using a fully padded single-block message.
func TestSHA1ReferenceAgainstStdlib(t *testing.T) {
	// "abc" padded to one 512-bit block per FIPS 180-1.
	msg := []byte("abc")
	var block [64]byte
	copy(block[:], msg)
	block[len(msg)] = 0x80
	binary.BigEndian.PutUint64(block[56:], uint64(len(msg))*8)

	var w16 [16]uint32
	for i := range w16 {
		w16[i] = binary.BigEndian.Uint32(block[4*i:])
	}
	got := sha1Compress(w16)
	want := sha1.Sum(msg)
	for i := 0; i < 5; i++ {
		if binary.BigEndian.Uint32(want[4*i:]) != got[i] {
			t.Fatalf("word %d: %08x != crypto/sha1 %08x", i, got[i], binary.BigEndian.Uint32(want[4*i:]))
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("expected 11 benchmarks (Table 4), got %d: %v", len(names), names)
	}
	// Paper's Figure 1 ordering.
	want := []string{"BFS", "Nqueen", "MUM", "SCAN", "BitonicSort", "Laplace",
		"MatrixMul", "RadixSort", "SHA", "Libor", "CUFFT"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("order[%d] = %s, want %s", i, names[i], n)
		}
	}
	if _, err := ByName("Nonexistent"); err == nil {
		t.Error("ByName should fail for unknown benchmarks")
	}
	for _, b := range All() {
		if b.Category == "" || b.Desc == "" || b.Build == nil {
			t.Errorf("%s: incomplete registration", b.Name)
		}
	}
}

func TestTransferSizesPositive(t *testing.T) {
	for _, b := range All() {
		g, err := sim.New(arch.PaperConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		run, err := b.Build(g)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if run.InBytes <= 0 || run.OutBytes <= 0 {
			t.Errorf("%s: transfer sizes must be positive (%d, %d)", b.Name, run.InBytes, run.OutBytes)
		}
		if len(run.Steps) == 0 || run.Check == nil {
			t.Errorf("%s: incomplete run", b.Name)
		}
	}
}

func TestHostReferences(t *testing.T) {
	if n := hostNQueens(8); n != 92 {
		t.Errorf("8-queens = %d, want 92", n)
	}
	if n := hostNQueens(6); n != 4 {
		t.Errorf("6-queens = %d, want 4", n)
	}
	// BFS reference: ring graph of 8, source 0: node 4 is 2 hops away
	// via the +-2 chords.
	g := &bfsGraph{
		rowPtr: []uint32{0, 2, 4, 6, 8},
		colIdx: []uint32{1, 3, 0, 2, 1, 3, 0, 2}, // 4-cycle
	}
	lv := hostBFS(g, 0)
	want := []uint32{0, 1, 2, 1}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("bfs level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

// TestDeterminism: two runs of the same benchmark must produce
// identical cycle counts — the simulator is fully deterministic.
func TestDeterminism(t *testing.T) {
	a := runOne(t, "Laplace", arch.WarpedDMRConfig())
	b := runOne(t, "Laplace", arch.WarpedDMRConfig())
	if a.Cycles != b.Cycles || a.WarpInstrs != b.WarpInstrs ||
		a.VerifiedIntra != b.VerifiedIntra || a.StallReplayQFull != b.StallReplayQFull {
		t.Error("simulation is not deterministic")
	}
}

// TestExtrasValidate runs the non-paper reference workloads (they must
// not appear in the Table 4 registry).
func TestExtrasValidate(t *testing.T) {
	ex := Extras()
	if len(ex) < 3 {
		t.Fatalf("expected at least 3 extra workloads, got %d", len(ex))
	}
	paper := map[string]bool{}
	for _, b := range All() {
		paper[b.Name] = true
	}
	for _, b := range ex {
		b := b
		if paper[b.Name] {
			t.Fatalf("extra %s leaked into the Table 4 registry", b.Name)
		}
		t.Run(b.Name, func(t *testing.T) {
			st, _, err := Attempt(context.Background(), arch.WarpedDMRConfig(), b, sim.LaunchOpts{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if st.FaultsDetected != 0 {
				t.Error("fault-free extra flagged errors")
			}
		})
	}
	if _, err := ExtraByName("Reduce"); err != nil {
		t.Error(err)
	}
	if _, err := ExtraByName("Nope"); err == nil {
		t.Error("unknown extra accepted")
	}
}

// TestTransposePaddingAvoidsBankConflicts: the padded tile keeps the
// shared-memory column reads conflict-free; the histogram's shared
// atomics and the reduction tree exercise their own corners.
func TestTransposeBankBehaviour(t *testing.T) {
	b, err := ExtraByName("Transpose")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := Attempt(context.Background(), arch.PaperConfig(), b, sim.LaunchOpts{}, true)
	if err != nil {
		t.Fatal(err)
	}
	// With padding, shared accesses should not blow up the LD/ST time:
	// the whole transpose is a few thousand instructions.
	if st.Cycles > 20000 {
		t.Errorf("transpose took %d cycles; bank padding may be broken", st.Cycles)
	}
}

// TestKernelDisassemblyRoundTrips: every built-in kernel's disassembly
// must reassemble to an equivalent program — the strongest available
// check that the assembler, disassembler, and kernel sources agree.
func TestKernelDisassemblyRoundTrips(t *testing.T) {
	sources := map[string]string{
		"bfs":       bfsSrc,
		"nqueen":    nqueenSrc,
		"mum":       mumSrc,
		"scanBlock": scanBlockSrc,
		"scanAdd":   scanAddSrc,
		"bitonic":   bitonicSrc,
		"laplace":   laplaceSrc,
		"matmul":    matmulSrc,
		"radixHist": radixHistSrc,
		"radixGath": radixGatherSrc,
		"sha":       shaSrc,
		"libor":     liborSrc,
		"fft":       fftSrc,
		"reduce":    reduceSrc,
		"transpose": transposeSrc,
		"histogram": histogramSrc,
		"vulnMicro": vulnMicroSrc,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			p1, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			p2, err := asm.Assemble(p1.Disassemble())
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			if len(p1.Instrs) != len(p2.Instrs) {
				t.Fatalf("instruction counts differ: %d vs %d", len(p1.Instrs), len(p2.Instrs))
			}
			for i := range p1.Instrs {
				a, b := p1.Instrs[i], p2.Instrs[i]
				a.Line, b.Line = 0, 0
				if a != b {
					t.Fatalf("instr %d differs:\n  %v\n  %v", i, &a, &b)
				}
			}
			if p1.NumRegs != p2.NumRegs {
				t.Errorf("register counts differ: %d vs %d", p1.NumRegs, p2.NumRegs)
			}
		})
	}
}

// TestKernelDisassemblyFixpoint: over every bundled source (the same
// set LintAll covers, so nothing can drift out of the round-trip net),
// the disassembly must be a fixpoint — reassembling a kernel's
// disassembly and disassembling again yields byte-identical text. This
// pins the disassembler as a canonical spelling of the program.
func TestKernelDisassemblyFixpoint(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Sources() {
		p1, err := asm.Assemble(s.Src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", s.File, err)
		}
		if seen[p1.Name] {
			continue
		}
		seen[p1.Name] = true
		t.Run(p1.Name, func(t *testing.T) {
			d1 := p1.Disassemble()
			p2, err := asm.Assemble(d1)
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			if d2 := p2.Disassemble(); d1 != d2 {
				t.Errorf("disassembly is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", d1, d2)
			}
		})
	}
	// The net must actually cover the full bundled set, extras included.
	if !seen["vuln_micro"] {
		t.Error("Sources() is missing the vuln_micro extra")
	}
}

// TestKernelRegisterBudgets: every kernel fits the 64-GPR budget with
// room to spare (register pressure bounds SM occupancy).
func TestKernelRegisterBudgets(t *testing.T) {
	for _, b := range append(All(), Extras()...) {
		g, err := sim.New(arch.PaperConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		run, err := b.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range run.Steps {
			if n := step.Kernel.Prog.NumRegs; n > 32 {
				t.Errorf("%s kernel %s uses %d registers; keep kernels under 32",
					b.Name, step.Kernel.Prog.Name, n)
			}
		}
	}
}

// TestBuildsShareDeclaredPrograms: every bundled workload launches
// exactly the kernels it declares, in first-launch order, and two
// Builds launch the same programs: each source is assembled once and
// shared, not assembled again per Build.
func TestBuildsShareDeclaredPrograms(t *testing.T) {
	launched := func(t *testing.T, b *Benchmark) []*isa.Program {
		t.Helper()
		g, err := sim.New(arch.PaperConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		run, err := b.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		var progs []*isa.Program
		for _, step := range run.Steps {
			progs = append(progs, step.Kernel.Prog)
		}
		return progs
	}
	for _, b := range append(All(), Extras()...) {
		t.Run(b.Name, func(t *testing.T) {
			first, second := launched(t, b), launched(t, b)
			if !slices.Equal(first, second) {
				t.Error("two Builds launched different programs")
			}
			declared, err := b.Programs()
			if err != nil {
				t.Fatal(err)
			}
			var distinct []*isa.Program
			for _, p := range first {
				if !slices.Contains(distinct, p) {
					distinct = append(distinct, p)
				}
			}
			if !slices.Equal(distinct, declared) {
				t.Errorf("Build launches %s, want the declared kernels %s", progNames(distinct), progNames(declared))
			}
		})
	}
	if progs, err := Inline("tiny", asm.MustAssemble(".kernel tiny\nexit\n"), sim.Kernel{}).Programs(); err != nil || len(progs) != 0 {
		t.Errorf("Inline workload declares %d programs (err %v), want none", len(progs), err)
	}
}

func progNames(progs []*isa.Program) []string {
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}
	return names
}
