package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"warped/internal/mem"
	"warped/internal/sim"
)

// Libor: Monte-Carlo LIBOR swaption pricing (the paper's financial
// workload). Each thread evolves one forward-rate path with lognormal
// shocks drawn from a pre-generated normal table, accumulating the
// discounted positive payoff. The per-step exp and reciprocal land on
// the SFUs, giving the SP/SFU interleave that makes inter-warp DMR
// cheap for this benchmark.
const (
	liborBlocks  = 16 // paper uses gridDim 64; scaled down
	liborThreads = 64 // paper blockDim 64
	liborPaths   = liborBlocks * liborThreads
	liborSteps   = 40
)

const (
	liborL0    = 0.05 // initial forward rate
	liborSigma = 0.2  // volatility
	liborDelta = 0.25 // accrual period (years)
	liborK     = 0.05 // strike
	log2e      = 1.4426950408889634
)

// params: [0]=normals base (liborSteps words/path), [4]=payoff out base.
const liborSrc = `
.kernel libor
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; path id
	ld.param r3, [0]
	ld.param r4, [4]
	imul r5, r2, 160            ; path * steps * 4 bytes
	iadd r5, r3, r5             ; normals cursor
	mov  r10, 0.05              ; L
	mov  r11, 1.0               ; discount
	mov  r12, 0.0               ; payoff accumulator
	mov  r13, 0                 ; step
	; drift = -0.5 * sigma^2 * delta
	mov  r14, -0.002            ; -0.5 * 0.2^2 * 0.25
	mov  r15, 0.1               ; sigma * sqrt(delta) = 0.2 * 0.5
STEP:
	ld.global r16, [r5]         ; z
	iadd r5, r5, 4
	; L *= exp(sigma*sqrt(dt)*z + drift) = 2^((...) * log2(e))
	fmul r17, r15, r16
	fadd r17, r17, r14
	fmul r17, r17, 1.4426950408889634
	fex2 r17, r17
	fmul r10, r10, r17
	; discount *= 1 / (1 + delta*L)
	fmul r18, r10, 0.25
	fadd r18, r18, 1.0
	frcp r18, r18
	fmul r11, r11, r18
	; payoff += max(L - K, 0) * discount
	fsub r19, r10, 0.05
	fmax r19, r19, 0.0
	ffma r12, r19, r11, r12
	iadd r13, r13, 1
	setp.lt.s32 p0, r13, 40
	@p0 bra STEP
	shl  r20, r2, 2
	iadd r20, r4, r20
	st.global [r20], r12
	exit
`

var liborKernel = &Source{File: "internal/kernels/libor.go", Src: liborSrc}

var liborBench = &Benchmark{
	Name:     "Libor",
	Category: "Financial",
	Desc:     fmt.Sprintf("Monte-Carlo LIBOR pricing, %d paths x %d steps", liborPaths, liborSteps),
	Build:    buildLibor,
	kernels:  []*Source{liborKernel},
}

// liborHostPath replicates the kernel arithmetic in float32 with the
// same operation order, so results match bit-for-bit up to the SFU
// approximations (which use float64 internally on both sides).
func liborHostPath(normals []float32) float32 {
	l := float32(liborL0)
	disc := float32(1.0)
	payoff := float32(0.0)
	drift := float32(-0.002)
	vol := float32(0.1)
	for _, z := range normals {
		arg := vol*z + drift
		arg = arg * float32(log2e)
		l = l * float32(math.Exp2(float64(arg)))
		den := l*float32(liborDelta) + 1.0
		disc = disc * float32(1/float64(den))
		ex := l - float32(liborK)
		if ex < 0 {
			ex = 0
		}
		payoff = float32(float64(ex)*float64(disc) + float64(payoff))
	}
	return payoff
}

func buildLibor(g *sim.GPU) (*Run, error) {
	prog, err := liborKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(43))
	normals := make([]float32, liborPaths*liborSteps)
	for i := range normals {
		normals[i] = float32(rng.NormFloat64())
	}
	dn := g.Mem.MustAlloc(4 * len(normals))
	dp := g.Mem.MustAlloc(4 * liborPaths)
	if err := g.Mem.WriteFloats(dn, normals); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: liborBlocks, GridY: 1,
		BlockX: liborThreads, BlockY: 1,
		Params: mem.NewParams(dn, dp),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadFloats(dp, liborPaths)
		if err != nil {
			return err
		}
		for p := 0; p < liborPaths; p++ {
			want := liborHostPath(normals[p*liborSteps : (p+1)*liborSteps])
			if d := math.Abs(float64(got[p] - want)); d > 1e-4*(1+math.Abs(float64(want))) {
				return fmt.Errorf("path %d payoff %g, want %g", p, got[p], want)
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * int64(len(normals)),
		OutBytes: 4 * liborPaths,
	}, nil
}
