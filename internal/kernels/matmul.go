package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"warped/internal/mem"
	"warped/internal/sim"
)

// MatrixMul: tiled dense C = A x B with 16x16 shared-memory tiles,
// the CUDA SDK kernel shape. Paper Table 4 uses gridDim 8x5 with
// 16x16 blocks; we keep that grid (C is 128 wide x 80 tall) with K=32.
// Every warp is fully utilized, and the inner product is a long burst
// of SP instructions — this is the workload with the worst inter-warp
// DMR overhead in Fig. 9b.
const (
	mmM = 80  // rows of A and C
	mmN = 128 // cols of B and C
	mmK = 32  // inner dimension
)

// matmulSrc is generated: like nvcc, the 16-step inner product is fully
// unrolled with immediate shared-memory offsets, so the steady-state
// instruction mix is ~2 shared loads per FFMA (close to the real SDK
// kernel's SASS) rather than being dominated by address arithmetic.
var matmulSrc = buildMatmulSrc()

var matmulKernel = &Source{File: "internal/kernels/matmul.go", Src: matmulSrc}

func buildMatmulSrc() string {
	var sb strings.Builder
	sb.WriteString(matmulProlog)
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&sb, "\tld.shared r19, [r17+%d]\n", 4*k)
		fmt.Fprintf(&sb, "\tld.shared r20, [r18+%d]\n", 1024+64*k)
		sb.WriteString("\tffma r11, r19, r20, r11\n")
	}
	sb.WriteString(matmulEpilog)
	return sb.String()
}

const matmulProlog = `
.kernel matmul
.shared 2048
.block 16 16
	mov r0, %tid.x
	mov r1, %tid.y
	mov r2, %ctaid.x
	mov r3, %ctaid.y
	ld.param r4, [0]            ; K
	ld.param r5, [4]            ; N
	ld.param r6, [8]            ; A
	ld.param r7, [12]           ; B
	ld.param r8, [16]           ; C
	shl  r9, r3, 4
	iadd r9, r9, r1             ; row = by*16 + ty
	shl  r10, r2, 4
	iadd r10, r10, r0           ; col = bx*16 + tx
	mov  r11, 0.0               ; acc
	mov  r12, 0                 ; tile index t
TILE:
	; As[ty][tx] = A[row*K + t*16 + tx]
	imul r13, r9, r4
	shl  r14, r12, 4
	iadd r13, r13, r14
	iadd r13, r13, r0
	shl  r13, r13, 2
	iadd r13, r6, r13
	ld.global r15, [r13]
	shl  r16, r1, 4
	iadd r16, r16, r0
	shl  r16, r16, 2
	st.shared [r16], r15
	; Bs[ty][tx] = B[(t*16+ty)*N + col]
	shl  r13, r12, 4
	iadd r13, r13, r1
	imul r13, r13, r5
	iadd r13, r13, r10
	shl  r13, r13, 2
	iadd r13, r7, r13
	ld.global r15, [r13]
	st.shared [r16+1024], r15
	bar.sync
	shl  r17, r1, 6             ; As row base = ty*64 bytes
	shl  r18, r0, 2             ; Bs column base = tx*4 bytes
`

const matmulEpilog = `	bar.sync
	iadd r12, r12, 1
	sar  r21, r4, 4             ; K/16 tiles
	setp.lt.s32 p0, r12, r21
	@p0 bra TILE
	; C[row*N + col] = acc
	imul r13, r9, r5
	iadd r13, r13, r10
	shl  r13, r13, 2
	iadd r13, r8, r13
	st.global [r13], r11
	exit
`

var matmulBench = &Benchmark{
	Name:     "MatrixMul",
	Category: "Linear Algebra/Primitives",
	Desc:     fmt.Sprintf("tiled %dx%dx%d single-precision matrix multiply", mmM, mmK, mmN),
	Build:    buildMatmul,
	kernels:  []*Source{matmulKernel},
}

func buildMatmul(g *sim.GPU) (*Run, error) {
	prog, err := matmulKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	a := make([]float32, mmM*mmK)
	b := make([]float32, mmK*mmN)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
	}
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	da := g.Mem.MustAlloc(4 * len(a))
	db := g.Mem.MustAlloc(4 * len(b))
	dc := g.Mem.MustAlloc(4 * mmM * mmN)
	if err := g.Mem.WriteFloats(da, a); err != nil {
		return nil, err
	}
	if err := g.Mem.WriteFloats(db, b); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: mmN / 16, GridY: mmM / 16,
		BlockX: 16, BlockY: 16,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(mmK, mmN, da, db, dc),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadFloats(dc, mmM*mmN)
		if err != nil {
			return err
		}
		for r := 0; r < mmM; r++ {
			for c := 0; c < mmN; c++ {
				var want float64
				for i := 0; i < mmK; i++ {
					want += float64(a[r*mmK+i]) * float64(b[i*mmN+c])
				}
				gv := float64(got[r*mmN+c])
				if math.Abs(gv-want) > 1e-3*(1+math.Abs(want)) {
					return fmt.Errorf("C[%d][%d] = %g, want %g", r, c, gv, want)
				}
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * int64(len(a)+len(b)),
		OutBytes: 4 * mmM * mmN,
	}, nil
}
