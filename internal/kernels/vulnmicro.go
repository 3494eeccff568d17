package kernels

import (
	"fmt"
	"math/rand"

	"warped/internal/mem"
	"warped/internal/sim"
)

// --- VulnMicro: vulnerability-analysis microbenchmark ---
//
// A vector scale with a disabled-telemetry chain left in the binary:
// the debug build computed a per-element diagnostic signature and
// published it with a trailing store; the release build compiled the
// store out but kept the arithmetic — the classic dead-code artifact
// that ACE analysis exists to find (a fault anywhere in the chain is
// architecturally masked). The live path (index math, load, scale,
// store) and the dead chain share source registers, so the analysis
// must separate per-instruction destinations from operand liveness
// rather than condemn whole registers.
//
// This is the reference workload for `warpsim vuln`, the experiments
// `vulncheck` figure, and the synthesized-policy Pareto rows: its
// unACE fraction is large enough (~5 of 18 eligible PCs on the hot
// path) that a synthesized skip policy shows measurable SkippedTI.

const vulnMicroN = 4096

// params: [0]=in, [4]=out, [8]=k (scale factor).
const vulnMicroSrc = `
.kernel vuln_micro
.block 64
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mov  r2, %ntid.x
	imad r3, r1, r2, r0         ; element index
	ld.param r4, [0]
	ld.param r5, [4]
	ld.param r6, [8]            ; k
	shl  r7, r3, 2
	iadd r8, r4, r7
	ld.global r9, [r8]          ; x
	imul r10, r9, r6            ; y = k*x
	; disabled telemetry: the diagnostic signature below was published
	; by a st.global in the debug build; without it the chain is dead.
	xor  r11, r9, r3
	imad r11, r11, 31, r10
	and  r11, r11, 255
	shl  r11, r11, 8
	iadd r11, r11, r9
	; live path resumes
	iadd r12, r5, r7
	st.global [r12], r10
	exit
`

var vulnMicroKernel = &Source{File: "internal/kernels/vulnmicro.go", Src: vulnMicroSrc}

var vulnMicroBench = &Benchmark{
	Name:     "VulnMicro",
	Category: "Extra/Synthetic",
	Desc:     fmt.Sprintf("vector scale of %d ints with a dead telemetry chain (ACE-analysis reference)", vulnMicroN),
	Build:    buildVulnMicro,
	kernels:  []*Source{vulnMicroKernel},
}

func buildVulnMicro(g *sim.GPU) (*Run, error) {
	prog, err := vulnMicroKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(109))
	const k = 2654435761 // Knuth's multiplicative hash constant
	in := make([]uint32, vulnMicroN)
	for i := range in {
		in[i] = rng.Uint32()
	}
	din := g.Mem.MustAlloc(4 * vulnMicroN)
	dout := g.Mem.MustAlloc(4 * vulnMicroN)
	if err := g.Mem.WriteWords(din, in); err != nil {
		return nil, err
	}
	kern := &sim.Kernel{
		Prog:  prog,
		GridX: vulnMicroN / 64, GridY: 1,
		BlockX: 64, BlockY: 1,
		Params: mem.NewParams(din, dout, k),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dout, vulnMicroN)
		if err != nil {
			return err
		}
		for i := range got {
			if want := in[i] * k; got[i] != want {
				return fmt.Errorf("out[%d] = %d, want %d", i, got[i], want)
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: kern}},
		Check:    check,
		InBytes:  4 * vulnMicroN,
		OutBytes: 4 * vulnMicroN,
	}, nil
}
