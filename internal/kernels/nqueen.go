package kernels

import (
	"fmt"

	"warped/internal/mem"
	"warped/internal/sim"
)

// NQueen: counts solutions of the 8-queens problem. Each thread is
// seeded with one (column row0, column row1) prefix and runs an
// iterative bitmask depth-first search with its stack in per-thread
// scratch memory. Subtree sizes differ wildly between threads, so
// warps spend most of their time partially utilized — the paper's
// AI/simulation divergence workload.
const (
	nqN       = 8
	nqFull    = (1 << nqN) - 1
	nqThreads = nqN * nqN // one thread per (c0, c1) prefix
)

// Per-thread scratch layout (word offsets): ls[9] at 0, rs[9] at 9,
// cs[9] at 18, poss[9] at 27 => 36 words = 144 bytes per thread.
//
// params: [0]=scratch base, [4]=solution counter.
const nqueenSrc = `
.kernel nqueen
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; t
	ld.param r3, [0]
	imul r4, r2, 144
	iadd r3, r3, r4             ; scratch base for this thread
	ld.param r4, [4]            ; counter
	; decode prefix: c0 = t / 8, c1 = t % 8
	sar  r5, r2, 3
	and  r6, r2, 7
	mov  r7, 1
	shl  r5, r7, r5             ; bit0
	shl  r6, r7, r6             ; bit1
	; after placing row 0
	shl  r8, r5, 1              ; ls1
	shr  r9, r5, 1              ; rs1
	mov  r10, r5                ; cs1
	; is row-1 placement legal?
	or   r11, r8, r9
	or   r11, r11, r10
	and  r11, r11, r6
	setp.ne.s32 p0, r11, 0
	@p0 exit                    ; conflicting prefix: nothing to count
	; masks after placing row 1 (depth 2)
	or   r8, r8, r6
	shl  r8, r8, 1
	and  r8, r8, 255            ; ls2
	or   r9, r9, r6
	shr  r9, r9, 1              ; rs2
	or   r10, r10, r6           ; cs2
	st.global [r3+8], r8        ; ls[2] at (0+2)*4
	st.global [r3+44], r9       ; rs[2] at (9+2)*4
	st.global [r3+80], r10      ; cs[2] at (18+2)*4
	; poss[2] = ~(ls|rs|cs) & FULL
	or   r11, r8, r9
	or   r11, r11, r10
	not  r11, r11
	and  r11, r11, 255
	st.global [r3+116], r11     ; poss[2] at (27+2)*4
	mov  r12, 2                 ; depth
	mov  r13, 0                 ; count
LOOP:
	setp.lt.s32 p1, r12, 2
	@p1 bra FLUSH
	setp.eq.s32 p2, r12, 8
	@p2 iadd r13, r13, 1        ; full placement found
	@p2 isub r12, r12, 1
	@p2 bra LOOP
	; poss = poss[depth]
	shl  r14, r12, 2
	iadd r15, r3, r14
	ld.global r16, [r15+108]    ; poss[depth] (27*4 = 108)
	setp.eq.s32 p3, r16, 0
	@p3 isub r12, r12, 1        ; subtree exhausted: pop
	@p3 bra LOOP
	; bit = poss & -poss; poss[depth] -= bit
	mov  r17, 0
	isub r17, r17, r16
	and  r17, r17, r16          ; lowest set bit
	isub r16, r16, r17
	st.global [r15+108], r16
	; child masks
	ld.global r18, [r15]        ; ls[depth]
	ld.global r19, [r15+36]     ; rs[depth]
	ld.global r20, [r15+72]     ; cs[depth]
	or   r18, r18, r17
	shl  r18, r18, 1
	and  r18, r18, 255
	or   r19, r19, r17
	shr  r19, r19, 1
	or   r20, r20, r17
	st.global [r15+4], r18      ; ls[depth+1]
	st.global [r15+40], r19
	st.global [r15+76], r20
	or   r21, r18, r19
	or   r21, r21, r20
	not  r21, r21
	and  r21, r21, 255
	st.global [r15+112], r21    ; poss[depth+1]
	iadd r12, r12, 1
	bra LOOP
FLUSH:
	setp.eq.s32 p4, r13, 0
	@p4 exit
	atom.add.global r22, [r4], r13
	exit
`

var nqueenKernel = &Source{File: "internal/kernels/nqueen.go", Src: nqueenSrc}

// hostNQueens counts N-queens solutions with the same bitmask search.
func hostNQueens(n int) int {
	full := uint32(1<<n) - 1
	var rec func(ls, rs, cs uint32) int
	rec = func(ls, rs, cs uint32) int {
		if cs == full {
			return 1
		}
		cnt := 0
		poss := ^(ls | rs | cs) & full
		for poss != 0 {
			bit := poss & (^poss + 1)
			poss -= bit
			cnt += rec(((ls|bit)<<1)&full, (rs|bit)>>1, cs|bit)
		}
		return cnt
	}
	return rec(0, 0, 0)
}

var nqueenBench = &Benchmark{
	Name:     "Nqueen",
	Category: "AI/Simulation",
	Desc:     fmt.Sprintf("%d-queens solution count via per-thread bitmask DFS", nqN),
	Build:    buildNQueen,
	kernels:  []*Source{nqueenKernel},
}

func buildNQueen(g *sim.GPU) (*Run, error) {
	prog, err := nqueenKernel.Program()
	if err != nil {
		return nil, err
	}
	scratch := g.Mem.MustAlloc(nqThreads * 144)
	counter := g.Mem.MustAlloc(4)
	if err := g.Mem.Store32(counter, 0); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: 2, GridY: 1,
		BlockX: 32, BlockY: 1,
		Params: mem.NewParams(scratch, counter),
	}
	want := uint32(hostNQueens(nqN)) // 92 for n=8
	check := func(g *sim.GPU) error {
		got, err := g.Mem.Load32(counter)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("counted %d solutions, want %d", got, want)
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  8, // trivial: just the two pointers
		OutBytes: 4,
	}, nil
}
