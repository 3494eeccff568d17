package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"warped/internal/mem"
	"warped/internal/sim"
)

// BitonicSort: the CUDA SDK "simple bitonic sort" — one 512-thread
// block sorting 512 values in shared memory (Table 4: gridDim=1,
// blockDim=512). Every compare-exchange step guards on ixj > tid,
// leaving half the lanes idle, which is why the paper's Fig. 1 shows
// BitonicSort as the most underutilized workload.
const bitonicN = 512

const bitonicSrc = `
.kernel bitonic
.shared 2048
.block 512
	mov  r0, %tid.x
	ld.param r1, [0]            ; data
	ld.param r2, [4]            ; n
	shl  r3, r0, 2
	iadd r4, r1, r3
	ld.global r5, [r4]
	st.shared [r3], r5
	mov  r6, 2                  ; k
KLOOP:
	sar  r7, r6, 1              ; j
JLOOP:
	bar.sync
	xor  r8, r0, r7             ; ixj
	setp.gt.s32 p0, r8, r0
	@p0 ld.shared r9, [r3]      ; a = sh[tid]
	@p0 shl  r10, r8, 2
	@p0 ld.shared r11, [r10]    ; b = sh[ixj]
	@p0 imin r12, r9, r11
	@p0 imax r13, r9, r11
	@p0 and  r14, r0, r6
	@p0 setp.eq.s32 p1, r14, 0  ; ascending subsequence?
	@p0 selp r15, r12, r13, p1
	@p0 st.shared [r3], r15
	@p0 selp r16, r13, r12, p1
	@p0 st.shared [r10], r16
	sar  r7, r7, 1
	setp.gt.s32 p2, r7, 0
	@p2 bra JLOOP
	shl  r6, r6, 1
	setp.le.s32 p2, r6, r2
	@p2 bra KLOOP
	bar.sync
	ld.shared r5, [r3]
	st.global [r4], r5
	exit
`

var bitonicKernel = &Source{File: "internal/kernels/bitonic.go", Src: bitonicSrc}

var bitonicBench = &Benchmark{
	Name:     "BitonicSort",
	Category: "Sorting",
	Desc:     fmt.Sprintf("in-shared-memory bitonic sort of %d keys, single block", bitonicN),
	Build:    buildBitonic,
	kernels:  []*Source{bitonicKernel},
}

func buildBitonic(g *sim.GPU) (*Run, error) {
	prog, err := bitonicKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(23))
	keys := make([]uint32, bitonicN)
	for i := range keys {
		keys[i] = uint32(rng.Int31())
	}
	d := g.Mem.MustAlloc(4 * bitonicN)
	if err := g.Mem.WriteWords(d, keys); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: 1, GridY: 1,
		BlockX: bitonicN, BlockY: 1,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(d, bitonicN),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(d, bitonicN)
		if err != nil {
			return err
		}
		want := make([]uint32, bitonicN)
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
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * bitonicN,
		OutBytes: 4 * bitonicN,
	}, nil
}
