package kernels

import (
	"fmt"

	"warped/internal/mem"
	"warped/internal/sim"
)

// SCAN: work-efficient exclusive prefix sum (Blelloch up-sweep /
// down-sweep), the CUDA SDK "Scan Array" kernel shape. Each block scans
// 512 elements in shared memory; block sums are scanned by a recursive
// second launch and added back by a third kernel. The tree phases halve
// the active thread count every step, producing the long tail of
// low-occupancy issue slots the paper's Fig. 1 shows for SCAN — ideal
// intra-warp DMR territory.
const (
	scanBlockElems = 512
	scanBlocks     = 32
	scanN          = scanBlockElems * scanBlocks
)

// scanBlockSrc scans n=param[12] elements per block in shared memory.
// params: [0]=in, [4]=out, [8]=blockSums (0 = skip), [12]=n (power of 2).
const scanBlockSrc = `
.kernel scan_block
.shared 2048
.block 256
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	ld.param r2, [0]
	ld.param r3, [4]
	ld.param r4, [8]
	ld.param r5, [12]           ; n
	; load sh[2t] and sh[2t+1] from in[ctaid*n + 2t ...]
	imul r7, r1, r5
	shl  r8, r0, 1              ; 2t
	iadd r9, r7, r8
	shl  r9, r9, 2
	iadd r9, r2, r9
	ld.global r10, [r9]
	ld.global r11, [r9+4]
	shl  r12, r8, 2
	st.shared [r12], r10
	st.shared [r12+4], r11
	; up-sweep
	sar  r13, r5, 1             ; d = n/2
	mov  r14, 1                 ; offset
UP:
	bar.sync
	setp.lt.s32 p0, r0, r13
	@p0 iadd r15, r8, 1
	@p0 imul r15, r15, r14
	@p0 isub r15, r15, 1        ; ai
	@p0 iadd r16, r8, 2
	@p0 imul r16, r16, r14
	@p0 isub r16, r16, 1        ; bi
	@p0 shl  r15, r15, 2
	@p0 shl  r16, r16, 2
	@p0 ld.shared r17, [r15]
	@p0 ld.shared r18, [r16]
	@p0 iadd r18, r18, r17
	@p0 st.shared [r16], r18
	sar  r13, r13, 1
	shl  r14, r14, 1
	setp.gt.s32 p1, r13, 0
	@p1 bra UP
	bar.sync
	; thread 0: export total, clear last element
	setp.eq.s32 p0, r0, 0
	isub r15, r5, 1
	shl  r15, r15, 2
	setp.ne.s32 p2, r4, 0
	pand p2, p2, p0
	@p2 ld.shared r16, [r15]
	@p2 shl  r17, r1, 2
	@p2 iadd r17, r4, r17
	@p2 st.global [r17], r16
	mov  r18, 0
	@p0 st.shared [r15], r18
	; down-sweep
	mov  r13, 1
DOWN:
	sar  r14, r14, 1
	bar.sync
	setp.lt.s32 p0, r0, r13
	@p0 iadd r15, r8, 1
	@p0 imul r15, r15, r14
	@p0 isub r15, r15, 1
	@p0 iadd r16, r8, 2
	@p0 imul r16, r16, r14
	@p0 isub r16, r16, 1
	@p0 shl  r15, r15, 2
	@p0 shl  r16, r16, 2
	@p0 ld.shared r17, [r15]    ; t = sh[ai]
	@p0 ld.shared r18, [r16]
	@p0 st.shared [r15], r18    ; sh[ai] = sh[bi]
	@p0 iadd r18, r18, r17
	@p0 st.shared [r16], r18    ; sh[bi] += t
	shl  r13, r13, 1
	setp.lt.s32 p1, r13, r5
	@p1 bra DOWN
	bar.sync
	ld.shared r10, [r12]
	ld.shared r11, [r12+4]
	iadd r19, r7, r8
	shl  r19, r19, 2
	iadd r19, r3, r19
	st.global [r19], r10
	st.global [r19+4], r11
	exit
`

var scanBlockKernel = &Source{File: "internal/kernels/scan.go", Src: scanBlockSrc}

// scanAddSrc adds blockSums[ctaid] to each of the block's n outputs.
// params: [0]=out, [4]=sums, [8]=n.
const scanAddSrc = `
.kernel scan_add
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	ld.param r2, [0]
	ld.param r3, [4]
	ld.param r4, [8]
	shl  r5, r1, 2
	iadd r5, r3, r5
	ld.global r6, [r5]
	imul r7, r1, r4
	shl  r8, r0, 1
	iadd r7, r7, r8
	shl  r7, r7, 2
	iadd r7, r2, r7
	ld.global r9, [r7]
	iadd r9, r9, r6
	st.global [r7], r9
	ld.global r9, [r7+4]
	iadd r9, r9, r6
	st.global [r7+4], r9
	exit
`

var scanAddKernel = &Source{File: "internal/kernels/scan.go", Src: scanAddSrc}

var scanBench = &Benchmark{
	Name:     "SCAN",
	Category: "Linear Algebra/Primitives",
	Desc:     fmt.Sprintf("exclusive prefix sum of %d ints (Blelloch tree scan)", scanN),
	Build:    buildScan,
	kernels:  []*Source{scanBlockKernel, scanAddKernel},
}

func buildScan(g *sim.GPU) (*Run, error) {
	blockProg, err := scanBlockKernel.Program()
	if err != nil {
		return nil, err
	}
	addProg, err := scanAddKernel.Program()
	if err != nil {
		return nil, err
	}
	in := make([]uint32, scanN)
	s := uint32(12345)
	for i := range in {
		s = s*1664525 + 1013904223
		in[i] = s % 1000
	}
	din := g.Mem.MustAlloc(4 * scanN)
	dout := g.Mem.MustAlloc(4 * scanN)
	dsums := g.Mem.MustAlloc(4 * scanBlocks)
	if err := g.Mem.WriteWords(din, in); err != nil {
		return nil, err
	}
	steps := []Step{
		{Kernel: &sim.Kernel{ // per-block scan
			Prog:  blockProg,
			GridX: scanBlocks, GridY: 1,
			BlockX: scanBlockElems / 2, BlockY: 1,
			SharedBytes: blockProg.SharedBytes,
			Params:      mem.NewParams(din, dout, dsums, scanBlockElems),
		}},
		{Kernel: &sim.Kernel{ // scan the block sums in place (single block)
			Prog:  blockProg,
			GridX: 1, GridY: 1,
			BlockX: scanBlocks / 2, BlockY: 1,
			// Deliberately less than the program's declared worst case:
			// the 16-thread sums pass touches only the first 128 bytes.
			SharedBytes: 4 * scanBlocks,
			Params:      mem.NewParams(dsums, dsums, 0, scanBlocks),
		}},
		{Kernel: &sim.Kernel{ // add scanned sums back
			Prog:  addProg,
			GridX: scanBlocks, GridY: 1,
			BlockX: scanBlockElems / 2, BlockY: 1,
			Params: mem.NewParams(dout, dsums, scanBlockElems),
		}},
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dout, scanN)
		if err != nil {
			return err
		}
		var acc uint32
		for i := range got {
			if got[i] != acc {
				return fmt.Errorf("scan[%d] = %d, want %d", i, got[i], acc)
			}
			acc += in[i]
		}
		return nil
	}
	return &Run{
		Steps:    steps,
		Check:    check,
		InBytes:  4 * scanN,
		OutBytes: 4 * scanN,
	}, nil
}
