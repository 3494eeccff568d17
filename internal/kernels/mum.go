package kernels

import (
	"fmt"
	"math/rand"
	"sort"

	"warped/internal/mem"
	"warped/internal/sim"
)

// MUM: the MUMmer-style sequence-matching workload. MUMmer's GPU
// kernel walks a suffix tree per query; we use the classic equivalent
// formulation — binary search over the reference's suffix array — which
// has the same behavioural signature: data-dependent branching per
// query, divergent character-compare loops, and pointer-chasing loads.
// Each thread locates its query's best match position and length.
const (
	mumRefLen   = 2048
	mumQueries  = 1000 // not a multiple of the block size: tail warps
	mumQueryLen = 25   // paper uses 25bp queries
	mumBlockDim = 125  // odd block size like the paper's launches
)

// params: [0]=ref (one base per word), [4]=suffix array, [8]=queries,
// [12]=out (len,pos per query), [16]=refLen, [20]=numQueries.
const mumSrc = `
.kernel mum_match
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; query id
	ld.param r3, [20]
	setp.ge.s32 p0, r2, r3
	@p0 exit
	ld.param r4, [0]            ; ref
	ld.param r5, [4]            ; sa
	ld.param r6, [8]            ; queries
	imul r7, r2, 100            ; query * 25 words * 4
	iadd r6, r6, r7             ; this query's base
	ld.param r8, [16]           ; refLen
	; binary search for the query's lower bound in the suffix array
	mov  r9, 0                  ; lo
	mov  r10, r8                ; hi
BSEARCH:
	setp.ge.s32 p1, r9, r10
	@p1 bra FOUND
	iadd r11, r9, r10
	sar  r11, r11, 1            ; mid
	shl  r12, r11, 2
	iadd r12, r5, r12
	ld.global r13, [r12]        ; s = sa[mid]
	; compare query against ref[s..]: result in r14 (-1 suffix<q, else 0/1)
	mov  r15, 0                 ; i
	mov  r14, 0
CMP:
	setp.ge.s32 p2, r15, 25
	@p2 bra CMPDONE             ; ran out of query: suffix >= query
	iadd r16, r13, r15
	setp.ge.s32 p3, r16, r8
	@p3 mov r14, -1             ; suffix exhausted: suffix < query
	@p3 bra CMPDONE
	shl  r17, r16, 2
	iadd r17, r4, r17
	ld.global r18, [r17]        ; ref char
	shl  r19, r15, 2
	iadd r19, r6, r19
	ld.global r20, [r19]        ; query char
	setp.lt.s32 p4, r18, r20
	@p4 mov r14, -1
	@p4 bra CMPDONE
	setp.gt.s32 p5, r18, r20
	@p5 mov r14, 1
	@p5 bra CMPDONE
	iadd r15, r15, 1
	bra CMP
CMPDONE:
	setp.lt.s32 p6, r14, 0
	@p6 iadd r9, r11, 1         ; suffix < query: go right
	pnot p7, p6
	@p7 mov r10, r11            ; go left
	bra BSEARCH
FOUND:
	; compute LCP with sa[lo] (clamped) and sa[lo-1], keep the best
	mov  r21, 0                 ; best len
	mov  r22, 0                 ; best pos
	mov  r23, 0                 ; candidate round
CAND:
	; cand index = lo - round, skipped when out of [0, refLen)
	isub r24, r9, r23
	setp.lt.s32 p1, r24, 0
	@p1 bra NEXT
	setp.ge.s32 p1, r24, r8
	@p1 bra NEXT
	shl  r25, r24, 2
	iadd r25, r5, r25
	ld.global r13, [r25]        ; s = sa[cand]
	mov  r15, 0                 ; lcp
LCP:
	setp.ge.s32 p2, r15, 25
	@p2 bra LCPDONE
	iadd r16, r13, r15
	setp.ge.s32 p3, r16, r8
	@p3 bra LCPDONE
	shl  r17, r16, 2
	iadd r17, r4, r17
	ld.global r18, [r17]
	shl  r19, r15, 2
	iadd r19, r6, r19
	ld.global r20, [r19]
	setp.ne.s32 p4, r18, r20
	@p4 bra LCPDONE
	iadd r15, r15, 1
	bra LCP
LCPDONE:
	setp.gt.s32 p5, r15, r21
	@p5 mov r21, r15
	@p5 mov r22, r13
NEXT:
	iadd r23, r23, 1
	setp.le.s32 p6, r23, 1
	@p6 bra CAND
	; out[q] = (len, pos)
	ld.param r26, [12]
	shl  r27, r2, 3
	iadd r26, r26, r27
	st.global [r26], r21
	st.global [r26+4], r22
	exit
`

var mumKernel = &Source{File: "internal/kernels/mum.go", Src: mumSrc}

// hostMUM mirrors the kernel: binary search + two-candidate LCP.
func hostMUM(ref []uint32, sa []int, query []uint32) (length, pos uint32) {
	n := len(ref)
	cmp := func(s int) int { // -1: suffix < query, 0/1: suffix >= query
		for i := 0; i < len(query); i++ {
			if s+i >= n {
				return -1
			}
			switch {
			case ref[s+i] < query[i]:
				return -1
			case ref[s+i] > query[i]:
				return 1
			}
		}
		return 0
	}
	lo := sort.Search(n, func(m int) bool { return cmp(sa[m]) >= 0 })
	best, bestPos := 0, 0
	for _, cand := range []int{lo, lo - 1} {
		if cand < 0 || cand >= n {
			continue
		}
		s := sa[cand]
		l := 0
		for l < len(query) && s+l < n && ref[s+l] == query[l] {
			l++
		}
		if l > best {
			best, bestPos = l, s
		}
	}
	return uint32(best), uint32(bestPos)
}

var mumBench = &Benchmark{
	Name:     "MUM",
	Category: "Scientific",
	Desc:     fmt.Sprintf("suffix-array matching of %d %dbp queries against a %dbp reference", mumQueries, mumQueryLen, mumRefLen),
	Build:    buildMUM,
	kernels:  []*Source{mumKernel},
}

func buildMUM(g *sim.GPU) (*Run, error) {
	prog, err := mumKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(71))
	ref := make([]uint32, mumRefLen)
	for i := range ref {
		ref[i] = uint32(rng.Intn(4)) // A,C,G,T
	}
	// Suffix array of the reference.
	sa := make([]int, mumRefLen)
	for i := range sa {
		sa[i] = i
	}
	less := func(a, b int) bool {
		for a < mumRefLen && b < mumRefLen {
			if ref[a] != ref[b] {
				return ref[a] < ref[b]
			}
			a++
			b++
		}
		return a > b // shorter suffix sorts first
	}
	sort.Slice(sa, func(i, j int) bool { return less(sa[i], sa[j]) })

	// Queries: half sampled from the reference (guaranteed full-length
	// hits), half random (partial matches), randomly interleaved —
	// MUMmer's typical mix.
	queries := make([]uint32, mumQueries*mumQueryLen)
	for q := 0; q < mumQueries; q++ {
		if rng.Intn(2) == 0 {
			start := rng.Intn(mumRefLen - mumQueryLen)
			copy(queries[q*mumQueryLen:], ref[start:start+mumQueryLen])
		} else {
			for i := 0; i < mumQueryLen; i++ {
				queries[q*mumQueryLen+i] = uint32(rng.Intn(4))
			}
		}
	}

	dref := g.Mem.MustAlloc(4 * mumRefLen)
	dsa := g.Mem.MustAlloc(4 * mumRefLen)
	dq := g.Mem.MustAlloc(4 * len(queries))
	dout := g.Mem.MustAlloc(8 * mumQueries)
	saw := make([]uint32, mumRefLen)
	for i, s := range sa {
		saw[i] = uint32(s)
	}
	for _, w := range []struct {
		addr uint32
		data []uint32
	}{{dref, ref}, {dsa, saw}, {dq, queries}} {
		if err := g.Mem.WriteWords(w.addr, w.data); err != nil {
			return nil, err
		}
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: (mumQueries + mumBlockDim - 1) / mumBlockDim, GridY: 1,
		BlockX: mumBlockDim, BlockY: 1,
		Params: mem.NewParams(dref, dsa, dq, dout, mumRefLen, mumQueries),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dout, 2*mumQueries)
		if err != nil {
			return err
		}
		for q := 0; q < mumQueries; q++ {
			wl, wp := hostMUM(ref, sa, queries[q*mumQueryLen:(q+1)*mumQueryLen])
			gl, gp := got[2*q], got[2*q+1]
			if gl != wl {
				return fmt.Errorf("query %d match length %d, want %d", q, gl, wl)
			}
			// Positions may legitimately differ when several suffixes share
			// the same LCP; lengths must agree, and the reported position
			// must actually match to that length.
			if gl > 0 {
				for i := uint32(0); i < gl; i++ {
					if ref[gp+i] != queries[q*mumQueryLen+int(i)] {
						return fmt.Errorf("query %d reported pos %d does not match at %d", q, gp, i)
					}
				}
			}
			_ = wp
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * int64(2*mumRefLen+len(queries)),
		OutBytes: 8 * mumQueries,
	}, nil
}
