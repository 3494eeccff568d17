package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"warped/internal/mem"
	"warped/internal/sim"
)

// Laplace: Jacobi relaxation of the 2-D Laplace equation (5-point
// stencil), the classic "scientific computing" GPGPU workload. Paper
// Table 4 launches 32x4-thread blocks; we keep that block shape on a
// 256x64 grid with two ping-pong iterations. Interior warps are fully
// utilized; boundary handling creates thin divergence, so the workload
// is dominated by inter-warp DMR with a sprinkle of intra-warp.
const (
	lapW     = 250 // not a multiple of the 32-wide blocks: tail warps
	lapH     = 64
	lapIters = 2
)

const laplaceSrc = `
.kernel laplace
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; x
	mov  r0, %ctaid.y
	mov  r1, %ntid.y
	imad r3, r0, r1, %tid.y     ; y
	ld.param r4, [0]            ; W
	ld.param r5, [4]            ; H
	setp.ge.s32 p0, r2, r4
	@p0 exit                    ; column beyond the grid
	ld.param r6, [8]            ; in
	ld.param r7, [12]           ; out
	imad r8, r3, r4, r2         ; idx = y*W + x
	shl  r8, r8, 2
	; boundary iff x*(W-1-x)*y*(H-1-y) == 0
	isub r9, r4, 1
	isub r9, r9, r2
	imul r9, r9, r2
	isub r10, r5, 1
	isub r10, r10, r3
	imul r10, r10, r3
	imul r9, r9, r10
	setp.eq.s32 p0, r9, 0
	@p0 bra BOUND, DONE
	; interior: out = 0.25*(up + down + right + left)
	iadd r11, r6, r8
	shl  r13, r4, 2             ; row stride in bytes
	iadd r14, r11, r13
	ld.global r15, [r14]        ; down
	isub r14, r11, r13
	ld.global r16, [r14]        ; up
	ld.global r17, [r11+4]      ; right
	ld.global r18, [r11-4]      ; left
	fadd r15, r15, r16
	fadd r15, r15, r17
	fadd r15, r15, r18
	fmul r15, r15, 0.25
	iadd r14, r7, r8
	st.global [r14], r15
	bra DONE
BOUND:
	iadd r11, r6, r8
	ld.global r12, [r11]
	iadd r11, r7, r8
	st.global [r11], r12
DONE:
	exit
`

var laplaceKernel = &Source{File: "internal/kernels/laplace.go", Src: laplaceSrc}

var laplaceBench = &Benchmark{
	Name:     "Laplace",
	Category: "Scientific",
	Desc:     fmt.Sprintf("%dx%d Jacobi 5-point stencil, %d iterations", lapW, lapH, lapIters),
	Build:    buildLaplace,
	kernels:  []*Source{laplaceKernel},
}

func buildLaplace(g *sim.GPU) (*Run, error) {
	prog, err := laplaceKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(11))
	in := make([]float32, lapW*lapH)
	for i := range in {
		in[i] = rng.Float32() * 100
	}
	bufs := [2]uint32{
		g.Mem.MustAlloc(4 * len(in)),
		g.Mem.MustAlloc(4 * len(in)),
	}
	if err := g.Mem.WriteFloats(bufs[0], in); err != nil {
		return nil, err
	}
	var steps []Step
	for it := 0; it < lapIters; it++ {
		src, dst := bufs[it%2], bufs[(it+1)%2]
		steps = append(steps, Step{Kernel: &sim.Kernel{
			Prog:  prog,
			GridX: (lapW + 31) / 32, GridY: lapH / 4,
			BlockX: 32, BlockY: 4,
			Params: mem.NewParams(lapW, lapH, src, dst),
		}})
	}
	final := bufs[lapIters%2]

	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadFloats(final, lapW*lapH)
		if err != nil {
			return err
		}
		cur := make([]float32, len(in))
		next := make([]float32, len(in))
		copy(cur, in)
		for it := 0; it < lapIters; it++ {
			for y := 0; y < lapH; y++ {
				for x := 0; x < lapW; x++ {
					i := y*lapW + x
					if x == 0 || x == lapW-1 || y == 0 || y == lapH-1 {
						next[i] = cur[i]
						continue
					}
					// Same association order as the kernel: (down+up)+right+left.
					s := cur[i+lapW] + cur[i-lapW]
					s += cur[i+1]
					s += cur[i-1]
					next[i] = s * 0.25
				}
			}
			cur, next = next, cur
		}
		for i := range got {
			w := float64(cur[i])
			if math.Abs(float64(got[i])-w) > 1e-4*(1+math.Abs(w)) {
				return fmt.Errorf("cell %d = %g, want %g", i, got[i], w)
			}
		}
		return nil
	}
	return &Run{
		Steps:    steps,
		Check:    check,
		InBytes:  4 * int64(len(in)),
		OutBytes: 4 * int64(len(in)),
	}, nil
}
