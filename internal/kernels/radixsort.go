package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"warped/internal/mem"
	"warped/internal/sim"
)

// RadixSort: LSD radix sort of 16-bit keys, 4 bits per pass. Each pass
// is a histogram kernel (global atomics), a 16-element host-side
// exclusive scan (the CUDA SDK version also round-trips tiny bucket
// arrays), and a stable gather kernel in which 16 threads — one per
// digit — walk the whole key array. The gather phase runs a single
// half-utilized warp for thousands of cycles, giving RadixSort the
// low-occupancy profile of the paper's Fig. 1.
const (
	radixN      = 2048
	radixDigits = 16
	radixPasses = 4
)

// params: [0]=keys, [4]=hist, [8]=shiftAmount, [12]=n.
const radixHistSrc = `
.kernel radix_hist
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x
	ld.param r3, [12]
	setp.ge.s32 p0, r2, r3
	@p0 exit
	ld.param r4, [0]
	shl  r5, r2, 2
	iadd r5, r4, r5
	ld.global r6, [r5]          ; key
	ld.param r7, [8]
	shr  r6, r6, r7
	and  r6, r6, 15             ; digit
	ld.param r8, [4]
	shl  r6, r6, 2
	iadd r8, r8, r6
	mov  r9, 1
	atom.add.global r10, [r8], r9
	exit
`

var radixHistKernel = &Source{File: "internal/kernels/radixsort.go", Src: radixHistSrc}

// params: [0]=in, [4]=out, [8]=offsets (exclusive scan of hist),
// [12]=shiftAmount, [16]=n. One thread per digit value; thread d walks
// the input in order and writes keys whose digit is d to consecutive
// slots starting at offsets[d] — a stable counting-sort scatter.
const radixGatherSrc = `
.kernel radix_gather
	mov  r0, %tid.x             ; digit owned by this thread
	ld.param r1, [0]
	ld.param r2, [4]
	ld.param r3, [8]
	ld.param r4, [12]           ; shift
	ld.param r5, [16]           ; n
	shl  r6, r0, 2
	iadd r6, r3, r6
	ld.global r7, [r6]          ; next output slot for this digit
	mov  r8, 0                  ; i
SCAN:
	setp.ge.s32 p0, r8, r5
	@p0 bra DONE
	shl  r9, r8, 2
	iadd r9, r1, r9
	ld.global r10, [r9]         ; key
	shr  r11, r10, r4
	and  r11, r11, 15
	setp.eq.s32 p1, r11, r0     ; mine?
	@p1 shl  r12, r7, 2
	@p1 iadd r12, r2, r12
	@p1 st.global [r12], r10
	@p1 iadd r7, r7, 1
	iadd r8, r8, 1
	bra SCAN
DONE:
	exit
`

var radixGatherKernel = &Source{File: "internal/kernels/radixsort.go", Src: radixGatherSrc}

var radixBench = &Benchmark{
	Name:     "RadixSort",
	Category: "Sorting",
	Desc:     fmt.Sprintf("4-pass LSD radix sort of %d 16-bit keys", radixN),
	Build:    buildRadix,
	kernels:  []*Source{radixHistKernel, radixGatherKernel},
}

func buildRadix(g *sim.GPU) (*Run, error) {
	histProg, err := radixHistKernel.Program()
	if err != nil {
		return nil, err
	}
	gatherProg, err := radixGatherKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(57))
	keys := make([]uint32, radixN)
	for i := range keys {
		keys[i] = uint32(rng.Intn(1 << 16))
	}
	bufA := g.Mem.MustAlloc(4 * radixN)
	bufB := g.Mem.MustAlloc(4 * radixN)
	dhist := g.Mem.MustAlloc(4 * radixDigits)
	if err := g.Mem.WriteWords(bufA, keys); err != nil {
		return nil, err
	}

	var steps []Step
	src, dst := bufA, bufB
	for pass := 0; pass < radixPasses; pass++ {
		shift := uint32(pass * 4)
		// Clear the histogram before each pass (host-side memset).
		clear := func(g *sim.GPU) error {
			return g.Mem.WriteWords(dhist, make([]uint32, radixDigits))
		}
		if err := clear(g); err != nil {
			return nil, err
		}
		steps = append(steps,
			Step{
				Kernel: &sim.Kernel{
					Prog:  histProg,
					GridX: radixN / 256, GridY: 1,
					BlockX: 256, BlockY: 1,
					Params: mem.NewParams(src, dhist, shift, radixN),
				},
				Host: func(g *sim.GPU) error {
					// Exclusive scan of the 16 bucket counts (tiny, done on
					// the host like the SDK's CPU-assisted small scans).
					h, err := g.Mem.ReadWords(dhist, radixDigits)
					if err != nil {
						return err
					}
					var acc uint32
					for i, c := range h {
						h[i] = acc
						acc += c
					}
					return g.Mem.WriteWords(dhist, h)
				},
			},
			Step{
				Kernel: &sim.Kernel{
					Prog:  gatherProg,
					GridX: 1, GridY: 1,
					BlockX: radixDigits, BlockY: 1,
					Params: mem.NewParams(src, dst, dhist, shift, radixN),
				},
				Host: clear,
			},
		)
		src, dst = dst, src
	}
	final := src // after an even number of swaps this is bufA

	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(final, radixN)
		if err != nil {
			return err
		}
		want := make([]uint32, radixN)
		copy(want, keys)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("sorted[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}
	return &Run{
		Steps:    steps,
		Check:    check,
		InBytes:  4 * radixN,
		OutBytes: 4 * radixN,
	}, nil
}
