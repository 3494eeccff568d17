package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"warped/internal/mem"
	"warped/internal/sim"
)

// CUFFT: batched 256-point radix-2 complex FFTs (decimation in time,
// input pre-bit-reversed by the host, shared-memory butterflies,
// SFU-computed twiddles). Like the paper's CUFFT runs — which launch
// odd-sized blocks (Table 4: blockDim 25) — the block size here (100
// threads for 128 butterflies) is not a multiple of the warp width, so
// part of every stage executes in highly-but-not-fully utilized warps.
// Intra-warp DMR covers those poorly (few idle verifier lanes), which
// is exactly why CUFFT has the lowest error coverage in Fig. 9a.
const (
	fftN       = 256
	fftBlocks  = 32
	fftThreads = 100
	fftBflies  = fftN / 2
)

// fftSrc is generated: 3 guarded load slots, the stage loop with 2
// guarded butterflies per thread, 3 guarded store slots.
// params: [0]=data base (per block: re[256] then im[256]).
var fftSrc = buildFFTSrc()

var fftKernel = &Source{File: "internal/kernels/cufft.go", Src: fftSrc}

func buildFFTSrc() string {
	var b strings.Builder
	b.WriteString(`
.kernel fft256
.shared 2048
.block 100
	mov  r0, %tid.x
	mov  r2, %ctaid.x
	ld.param r3, [0]
	shl  r4, r2, 11             ; ctaid * 256 * 2 * 4 bytes
	iadd r3, r3, r4             ; this block's data
`)
	// Load N points with ceil(N/threads) strided slots per thread.
	for slot := 0; slot*fftThreads < fftN; slot++ {
		fmt.Fprintf(&b, `	iadd r10, r0, %d
	setp.lt.s32 p0, r10, %d
	@p0 shl  r11, r10, 2
	@p0 iadd r12, r3, r11
	@p0 ld.global r13, [r12]
	@p0 st.shared [r11], r13
	@p0 ld.global r13, [r12+1024]
	@p0 st.shared [r11+1024], r13
`, slot*fftThreads, fftN)
	}
	b.WriteString(`	mov  r5, 1                  ; s (stage)
	mov  r6, 2                  ; m = 1 << s
STAGE:
	bar.sync
	sar  r7, r6, 1              ; half = m/2
`)
	for slot := 0; slot*fftThreads < fftBflies; slot++ {
		fmt.Fprintf(&b, `	iadd r10, r0, %d            ; butterfly index b
	setp.lt.s32 p0, r10, %d
	@p0 isub r11, r5, 1
	@p0 shr  r12, r10, r11      ; group = b >> (s-1)
	@p0 shl  r12, r12, r5       ; group * m
	@p0 isub r13, r7, 1
	@p0 and  r13, r10, r13      ; k = b & (half-1)
	@p0 iadd r14, r12, r13      ; i
	@p0 iadd r15, r14, r7       ; j = i + half
	; twiddle = exp(-2*pi*i*k/m)
	@p0 i2f  r16, r13
	@p0 i2f  r17, r6
	@p0 frcp r17, r17
	@p0 fmul r16, r16, r17
	@p0 fmul r16, r16, -6.283185307179586
	@p0 fcos r18, r16           ; wr
	@p0 fsin r19, r16           ; wi
	@p0 shl  r20, r14, 2
	@p0 shl  r21, r15, 2
	@p0 ld.shared r22, [r20]        ; ar
	@p0 ld.shared r23, [r20+1024]   ; ai
	@p0 ld.shared r24, [r21]        ; br
	@p0 ld.shared r25, [r21+1024]   ; bi
	; t = w * b
	@p0 fmul r26, r18, r24
	@p0 fmul r27, r19, r25
	@p0 fsub r26, r26, r27      ; tr
	@p0 fmul r27, r18, r25
	@p0 fmul r28, r19, r24
	@p0 fadd r27, r27, r28      ; ti
	@p0 fsub r28, r22, r26
	@p0 st.shared [r21], r28        ; x[j].re = ar - tr
	@p0 fsub r28, r23, r27
	@p0 st.shared [r21+1024], r28   ; x[j].im = ai - ti
	@p0 fadd r28, r22, r26
	@p0 st.shared [r20], r28        ; x[i].re = ar + tr
	@p0 fadd r28, r23, r27
	@p0 st.shared [r20+1024], r28   ; x[i].im = ai + ti
`, slot*fftThreads, fftBflies)
	}
	fmt.Fprintf(&b, `	iadd r5, r5, 1
	shl  r6, r6, 1
	setp.le.s32 p1, r6, %d
	@p1 bra STAGE
	bar.sync
`, fftN)
	for slot := 0; slot*fftThreads < fftN; slot++ {
		fmt.Fprintf(&b, `	iadd r10, r0, %d
	setp.lt.s32 p0, r10, %d
	@p0 shl  r11, r10, 2
	@p0 iadd r12, r3, r11
	@p0 ld.shared r13, [r11]
	@p0 st.global [r12], r13
	@p0 ld.shared r13, [r11+1024]
	@p0 st.global [r12+1024], r13
`, slot*fftThreads, fftN)
	}
	b.WriteString("	exit\n")
	return b.String()
}

var fftBench = &Benchmark{
	Name:     "CUFFT",
	Category: "Scientific",
	Desc:     fmt.Sprintf("%d batched %d-point radix-2 complex FFTs", fftBlocks, fftN),
	Build:    buildFFT,
	kernels:  []*Source{fftKernel},
}

// bitrev reverses the low bits-th bits of x.
func bitrev(x, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = r<<1 | (x>>i)&1
	}
	return r
}

func buildFFT(g *sim.GPU) (*Run, error) {
	prog, err := fftKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(87))
	re := make([][]float32, fftBlocks)
	im := make([][]float32, fftBlocks)
	for bl := range re {
		re[bl] = make([]float32, fftN)
		im[bl] = make([]float32, fftN)
		for i := range re[bl] {
			re[bl][i] = rng.Float32()*2 - 1
			im[bl][i] = rng.Float32()*2 - 1
		}
	}
	data := g.Mem.MustAlloc(fftBlocks * fftN * 2 * 4)
	bits := 0
	for 1<<bits < fftN {
		bits++
	}
	// Device layout per block: re[256] (bit-reversed order) then im[256].
	for bl := 0; bl < fftBlocks; bl++ {
		rev := make([]float32, 2*fftN)
		for i := 0; i < fftN; i++ {
			rev[bitrev(i, bits)] = re[bl][i]
			rev[fftN+bitrev(i, bits)] = im[bl][i]
		}
		if err := g.Mem.WriteFloats(data+uint32(bl*2*fftN*4), rev); err != nil {
			return nil, err
		}
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: fftBlocks, GridY: 1,
		BlockX: fftThreads, BlockY: 1,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(data),
	}
	check := func(g *sim.GPU) error {
		for bl := 0; bl < fftBlocks; bl++ {
			got, err := g.Mem.ReadFloats(data+uint32(bl*2*fftN*4), 2*fftN)
			if err != nil {
				return err
			}
			for kk := 0; kk < fftN; kk++ {
				var wr, wi float64
				for n := 0; n < fftN; n++ {
					ang := -2 * math.Pi * float64(kk) * float64(n) / fftN
					c, s := math.Cos(ang), math.Sin(ang)
					xr, xi := float64(re[bl][n]), float64(im[bl][n])
					wr += xr*c - xi*s
					wi += xr*s + xi*c
				}
				gr, gi := float64(got[kk]), float64(got[fftN+kk])
				if math.Abs(gr-wr) > 0.05 || math.Abs(gi-wi) > 0.05 {
					return fmt.Errorf("block %d bin %d = (%g,%g), want (%g,%g)",
						bl, kk, gr, gi, wr, wi)
				}
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  fftBlocks * fftN * 2 * 4,
		OutBytes: fftBlocks * fftN * 2 * 4,
	}, nil
}
