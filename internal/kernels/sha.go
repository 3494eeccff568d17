package kernels

import (
	"fmt"
	"math/rand"
	"strings"

	"warped/internal/mem"
	"warped/internal/sim"
)

// SHA: the ERCBench SHA-1 workload in "direct mode" — every thread
// compresses its own independent 64-byte block and emits a 5-word
// digest. Pure integer SP work with no divergence: all warps are fully
// utilized, so SHA is covered almost entirely by inter-warp DMR and
// (with its long SP bursts) stresses the ReplayQ.
const (
	shaBlocks  = 8  // thread blocks
	shaThreads = 64 // threads per block; one message block each
	shaMsgs    = shaBlocks * shaThreads
)

// shaSrc is generated: the 80 rounds are four 20-iteration loops with
// phase-specific boolean functions and constants, and a 16-word rolling
// message schedule kept in a per-thread shared-memory window.
//
// params: [0]=msg base (16 words/thread), [4]=digest base (5
// words/thread).
var shaSrc = buildShaSrc()

var shaKernel = &Source{File: "internal/kernels/sha.go", Src: shaSrc}

func buildShaSrc() string {
	var b strings.Builder
	b.WriteString(`
.kernel sha1
.shared 4096
.block 64
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; gtid
	ld.param r3, [0]
	ld.param r5, [4]
	shl  r6, r2, 6              ; gtid*64 bytes
	iadd r3, r3, r6             ; msg base for this thread
	mov  r4, %tid.x
	shl  r4, r4, 6              ; W window base in shared memory
	; h0..h4
	mov  r10, 0x67452301
	mov  r11, 0xEFCDAB89
	mov  r12, 0x98BADCFE
	mov  r13, 0x10325476
	mov  r14, 0xC3D2E1F0
	mov  r7, r10                ; a..e working copies
	mov  r8, r11
	mov  r9, r12
	mov  r15, r13
	mov  r16, r14
	mov  r17, 0                 ; t
`)
	phase := []struct {
		label string
		k     uint32
		f     string // asm computing f(b,c,d) into r20, using r21 as temp
	}{
		{"P1", 0x5A827999, `	xor  r20, r9, r15
	and  r20, r20, r8
	xor  r20, r20, r15          ; ch = d ^ (b & (c^d))
`},
		{"P2", 0x6ED9EBA1, `	xor  r20, r8, r9
	xor  r20, r20, r15          ; parity
`},
		{"P3", 0x8F1BBCDC, `	and  r20, r8, r9
	or   r21, r8, r9
	and  r21, r21, r15
	or   r20, r20, r21          ; maj
`},
		{"P4", 0xCA62C1D6, `	xor  r20, r8, r9
	xor  r20, r20, r15          ; parity
`},
	}
	for pi, p := range phase {
		end := (pi + 1) * 20
		fmt.Fprintf(&b, "%s:\n", p.label)
		// --- message schedule: w into r22 ---
		if pi == 0 {
			// Rounds 0..19: rounds <16 load message words; >=16 mix.
			b.WriteString(`	setp.lt.s32 p0, r17, 16
	@p0 shl  r22, r17, 2
	@p0 iadd r22, r3, r22
	@p0 ld.global r22, [r22]
	@p0 bra HAVE_W, HAVE_W
	; w = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16])
`)
			b.WriteString(shaMix())
			b.WriteString("HAVE_W:\n")
		} else {
			b.WriteString(shaMix())
		}
		// Store w into the rolling window W[t & 15].
		b.WriteString(`	and  r23, r17, 15
	shl  r23, r23, 2
	iadd r23, r4, r23
	st.shared [r23], r22
`)
		b.WriteString(p.f)
		fmt.Fprintf(&b, `	; temp = rol5(a) + f + e + K + w
	shl  r24, r7, 5
	shr  r25, r7, 27
	or   r24, r24, r25          ; rol5(a)
	iadd r24, r24, r20
	iadd r24, r24, r16
	iadd r24, r24, %d
	iadd r24, r24, r22
	mov  r16, r15               ; e = d
	mov  r15, r9                ; d = c
	shl  r25, r8, 30
	shr  r26, r8, 2
	or   r9, r25, r26           ; c = rol30(b)
	mov  r8, r7                 ; b = a
	mov  r7, r24                ; a = temp
	iadd r17, r17, 1
	setp.lt.s32 p1, r17, %d
	@p1 bra %s
`, int64(int32(p.k)), end, p.label)
	}
	b.WriteString(`	; digest = h + working
	iadd r10, r10, r7
	iadd r11, r11, r8
	iadd r12, r12, r9
	iadd r13, r13, r15
	iadd r14, r14, r16
	imul r6, r2, 20
	iadd r5, r5, r6
	st.global [r5], r10
	st.global [r5+4], r11
	st.global [r5+8], r12
	st.global [r5+12], r13
	st.global [r5+16], r14
	exit
`)
	return b.String()
}

// shaMix emits the W mixing sequence: r22 = rol1(W[(t-3)&15] ^
// W[(t-8)&15] ^ W[(t-14)&15] ^ W[(t-16)&15]).
func shaMix() string {
	var b strings.Builder
	for i, back := range []int{3, 8, 14, 16} {
		fmt.Fprintf(&b, `	isub r23, r17, %d
	and  r23, r23, 15
	shl  r23, r23, 2
	iadd r23, r4, r23
	ld.shared r25, [r23]
`, back)
		if i == 0 {
			b.WriteString("	mov  r22, r25\n")
		} else {
			b.WriteString("	xor  r22, r22, r25\n")
		}
	}
	b.WriteString(`	shl  r23, r22, 1
	shr  r22, r22, 31
	or   r22, r22, r23          ; rol1
`)
	return b.String()
}

var shaBench = &Benchmark{
	Name:     "SHA",
	Category: "Compression/Encryption",
	Desc:     fmt.Sprintf("SHA-1 compression of %d independent 64-byte blocks", shaMsgs),
	Build:    buildSha,
	kernels:  []*Source{shaKernel},
}

// sha1Compress is the host reference: one SHA-1 compression round over
// a 16-word block. Verified against crypto/sha1 in the test suite.
func sha1Compress(w16 [16]uint32) [5]uint32 {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	var w [80]uint32
	copy(w[:16], w16[:])
	for t := 16; t < 80; t++ {
		x := w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16]
		w[t] = x<<1 | x>>31
	}
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
	for t := 0; t < 80; t++ {
		var f, k uint32
		switch {
		case t < 20:
			f, k = d^(b&(c^d)), 0x5A827999
		case t < 40:
			f, k = b^c^d, 0x6ED9EBA1
		case t < 60:
			f, k = (b&c)|((b|c)&d), 0x8F1BBCDC
		default:
			f, k = b^c^d, 0xCA62C1D6
		}
		tmp := (a<<5 | a>>27) + f + e + k + w[t]
		e, d, c, b, a = d, c, (b<<30 | b>>2), a, tmp
	}
	return [5]uint32{h[0] + a, h[1] + b, h[2] + c, h[3] + d, h[4] + e}
}

func buildSha(g *sim.GPU) (*Run, error) {
	prog, err := shaKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(31))
	msgs := make([]uint32, shaMsgs*16)
	for i := range msgs {
		msgs[i] = rng.Uint32()
	}
	dmsg := g.Mem.MustAlloc(4 * len(msgs))
	ddig := g.Mem.MustAlloc(4 * shaMsgs * 5)
	if err := g.Mem.WriteWords(dmsg, msgs); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: shaBlocks, GridY: 1,
		BlockX: shaThreads, BlockY: 1,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(dmsg, ddig),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(ddig, shaMsgs*5)
		if err != nil {
			return err
		}
		for m := 0; m < shaMsgs; m++ {
			var w16 [16]uint32
			copy(w16[:], msgs[m*16:(m+1)*16])
			want := sha1Compress(w16)
			for i := 0; i < 5; i++ {
				if got[m*5+i] != want[i] {
					return fmt.Errorf("digest %d word %d = %08x, want %08x", m, i, got[m*5+i], want[i])
				}
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * int64(len(msgs)),
		OutBytes: 4 * shaMsgs * 5,
	}, nil
}
