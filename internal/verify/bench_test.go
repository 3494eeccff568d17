package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"warped/internal/asm"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/verify"
)

// bundledProgram returns the assembled bundled source named name.
func bundledProgram(tb testing.TB, name string) *isa.Program {
	tb.Helper()
	for _, s := range kernels.Sources() {
		if s.Name == name {
			p, err := s.Program()
			if err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
			return p
		}
	}
	tb.Fatalf("no bundled source %q", name)
	return nil
}

// sharedPairsKernel returns a kernel of n ld.shared/st.shared pairs
// that all address 4·%tid.x at .block 1024. No two threads share a
// word, so every pair is race-free, and the race-witness search must
// rule out every thread pair of the block to show it.
func sharedPairsKernel(n int) string {
	var b strings.Builder
	b.WriteString(".kernel shared_pairs\n.shared 4096\n.block 1024\n\tshl r0, %tid.x, 2\n\tmov r1, 1\n")
	for i := 0; i < n; i++ {
		b.WriteString("\tld.shared r2, [r0]\n\tiadd r1, r1, r2\n\tst.shared [r0], r1\n")
	}
	b.WriteString("\texit\n")
	return b.String()
}

// findingsSink keeps the benchmarked calls' results live.
var findingsSink verify.Findings

// BenchmarkVerify reports the cost of one CheckWith call per case: each
// bundled source at its declared geometry, the geometries the warpd_hot
// inline catalog verifies, and a 16-pair shared-access kernel that
// exhausts the race-witness search. AnalyzeVuln/sha1 is the static ACE
// analysis on the largest bundled source.
func BenchmarkVerify(b *testing.B) {
	type bcase struct {
		name string
		p    *isa.Program
		opt  verify.Options
	}
	var cases []bcase
	for _, s := range kernels.Sources() {
		cases = append(cases, bcase{s.Name + "/declared", bundledProgram(b, s.Name), verify.Options{}})
	}
	for _, g := range []struct {
		kernel string
		bx, by int
	}{
		{"matmul", 16, 16},
		{"scan_block", 64, 1}, {"scan_block", 128, 1},
		{"bitonic", 64, 1}, {"bitonic", 128, 1}, {"bitonic", 256, 1}, {"bitonic", 512, 1},
	} {
		cases = append(cases, bcase{fmt.Sprintf("catalog/%s/%dx%d", g.kernel, g.bx, g.by),
			bundledProgram(b, g.kernel), verify.Options{BlockDimX: g.bx, BlockDimY: g.by}})
	}
	pairs, err := asm.Assemble(sharedPairsKernel(16))
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, bcase{"shared_pairs16", pairs, verify.Options{}})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				findingsSink = verify.CheckWith(c.p, c.opt)
			}
		})
	}
	sha := bundledProgram(b, "sha1")
	b.Run("AnalyzeVuln/sha1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := verify.AnalyzeVuln(sha); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSharedPairsKernelVerifiesClean keeps the benchmark's adversarial
// kernel meaningful: it must assemble and verify with no finding, so
// the witness search runs to exhaustion on every access pair.
func TestSharedPairsKernelVerifiesClean(t *testing.T) {
	p, err := asm.Assemble(sharedPairsKernel(2))
	if err != nil {
		t.Fatal(err)
	}
	if fs := verify.Check(p); len(fs) != 0 {
		t.Fatalf("shared-pairs kernel has findings:\n%s", fs)
	}
}

// TestCheckAllocs bounds what one CheckWith call allocates on the
// largest bundled source: states are updated in place and the witness
// search allocates per access, not per thread pair.
func TestCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; CI runs this guard without -race")
	}
	sha := bundledProgram(t, "sha1")
	const bound = 2000
	if n := testing.AllocsPerRun(5, func() { verify.CheckWith(sha, verify.Options{}) }); n > bound {
		t.Fatalf("CheckWith(sha1) allocates %.0f objects per call, want at most %d", n, bound)
	}
}
