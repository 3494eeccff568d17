package kernels

import (
	"fmt"
	"math/rand"

	"warped/internal/mem"
	"warped/internal/sim"
)

// Extra workloads beyond the paper's Table 4: classic GPU primitives
// kept as reference kernels for library users and as additional
// exercise for the simulator (reduction trees, transpose coalescing
// patterns, atomic-heavy histograms). They follow the paper's workloads
// in the suite table, so the paper's experiments stay exactly the
// 11-benchmark suite.

// --- Reduction: block-wise shared-memory sum tree + atomic combine ---

const reduceN = 8192

// params: [0]=in, [4]=out (single word), [8]=n.
const reduceSrc = `
.kernel reduce_sum
.shared 1024
.block 256
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mov  r2, %ntid.x
	imad r3, r1, r2, r0         ; global index
	ld.param r4, [0]
	ld.param r5, [8]            ; n
	; load (0 beyond n)
	mov  r6, 0
	setp.lt.s32 p0, r3, r5
	@p0 shl  r7, r3, 2
	@p0 iadd r7, r4, r7
	@p0 ld.global r6, [r7]
	shl  r8, r0, 2
	st.shared [r8], r6
	; tree reduction: stride halves each step
	sar  r9, r2, 1
TREE:
	bar.sync
	setp.lt.s32 p1, r0, r9
	@p1 iadd r10, r0, r9
	@p1 shl  r10, r10, 2
	@p1 ld.shared r11, [r10]
	@p1 ld.shared r12, [r8]
	@p1 iadd r12, r12, r11
	@p1 st.shared [r8], r12
	sar  r9, r9, 1
	setp.gt.s32 p2, r9, 0
	@p2 bra TREE
	bar.sync
	; thread 0 combines block sums atomically
	setp.eq.s32 p3, r0, 0
	@p3 ld.shared r13, [0]
	@p3 ld.param r14, [4]
	@p3 atom.add.global r15, [r14], r13
	exit
`

var reduceKernel = &Source{File: "internal/kernels/extras.go", Src: reduceSrc}

var reduceBench = &Benchmark{
	Name:     "Reduce",
	Category: "Extra/Primitives",
	Desc:     fmt.Sprintf("shared-memory tree reduction of %d ints", reduceN),
	Build:    buildReduce,
	kernels:  []*Source{reduceKernel},
}

func buildReduce(g *sim.GPU) (*Run, error) {
	prog, err := reduceKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(101))
	in := make([]uint32, reduceN)
	var want uint32
	for i := range in {
		in[i] = uint32(rng.Intn(1000))
		want += in[i]
	}
	din := g.Mem.MustAlloc(4 * reduceN)
	dout := g.Mem.MustAlloc(4)
	if err := g.Mem.WriteWords(din, in); err != nil {
		return nil, err
	}
	const bs = 256
	k := &sim.Kernel{
		Prog:  prog,
		GridX: (reduceN + bs - 1) / bs, GridY: 1,
		BlockX: bs, BlockY: 1,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(din, dout, reduceN),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.Load32(dout)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("sum = %d, want %d", got, want)
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * reduceN,
		OutBytes: 4,
	}, nil
}

// --- Transpose: shared-memory tiled matrix transpose ---

const (
	transW = 128
	transH = 64
)

// params: [0]=in (H x W), [4]=out (W x H), [8]=W, [12]=H.
// Tiles are 16x16 with a padded shared stride (17 words) to dodge bank
// conflicts, the canonical CUDA SDK trick.
const transposeSrc = `
.kernel transpose
.shared 1088
.block 16 16
	mov  r0, %tid.x
	mov  r1, %tid.y
	mov  r2, %ctaid.x
	mov  r3, %ctaid.y
	ld.param r4, [0]
	ld.param r5, [4]
	ld.param r6, [8]            ; W
	ld.param r7, [12]           ; H
	; read in[y][x] into tile[ty][tx]
	shl  r8, r2, 4
	iadd r8, r8, r0             ; x
	shl  r9, r3, 4
	iadd r9, r9, r1             ; y
	imad r10, r9, r6, r8
	shl  r10, r10, 2
	iadd r10, r4, r10
	ld.global r11, [r10]
	imul r12, r1, 17            ; padded stride
	iadd r12, r12, r0
	shl  r12, r12, 2
	st.shared [r12], r11
	bar.sync
	; write out[x'][y'] from tile[tx][ty]
	shl  r13, r3, 4
	iadd r13, r13, r0           ; x in the output = by*16 + tx
	shl  r14, r2, 4
	iadd r14, r14, r1           ; y in the output = bx*16 + ty
	imad r15, r14, r7, r13
	shl  r15, r15, 2
	iadd r15, r5, r15
	imul r16, r0, 17
	iadd r16, r16, r1
	shl  r16, r16, 2
	ld.shared r17, [r16]
	st.global [r15], r17
	exit
`

var transposeKernel = &Source{File: "internal/kernels/extras.go", Src: transposeSrc}

var transposeBench = &Benchmark{
	Name:     "Transpose",
	Category: "Extra/Primitives",
	Desc:     fmt.Sprintf("%dx%d tiled matrix transpose (padded shared tiles)", transH, transW),
	Build:    buildTranspose,
	kernels:  []*Source{transposeKernel},
}

func buildTranspose(g *sim.GPU) (*Run, error) {
	prog, err := transposeKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(103))
	in := make([]uint32, transW*transH)
	for i := range in {
		in[i] = rng.Uint32()
	}
	din := g.Mem.MustAlloc(4 * len(in))
	dout := g.Mem.MustAlloc(4 * len(in))
	if err := g.Mem.WriteWords(din, in); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: transW / 16, GridY: transH / 16,
		BlockX: 16, BlockY: 16,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(din, dout, transW, transH),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dout, transW*transH)
		if err != nil {
			return err
		}
		for y := 0; y < transH; y++ {
			for x := 0; x < transW; x++ {
				if got[x*transH+y] != in[y*transW+x] {
					return fmt.Errorf("out[%d][%d] mismatch", x, y)
				}
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * int64(len(in)),
		OutBytes: 4 * int64(len(in)),
	}, nil
}

// --- Histogram: shared-memory bins + global atomic merge ---

const (
	histN    = 8192
	histBins = 64
)

// params: [0]=data, [4]=bins (global), [8]=n.
const histogramSrc = `
.kernel histogram
.shared 256
.block 256
	mov  r0, %tid.x
	mov  r1, %ctaid.x
	mov  r2, %ntid.x
	; zero the shared bins (64 bins, 256 threads: first 64 do it)
	setp.lt.s32 p0, r0, 64
	mov  r3, 0
	@p0 shl  r4, r0, 2
	@p0 st.shared [r4], r3
	bar.sync
	imad r5, r1, r2, r0         ; global index
	ld.param r6, [0]
	ld.param r7, [8]
	setp.lt.s32 p1, r5, r7
	@p1 shl  r8, r5, 2
	@p1 iadd r8, r6, r8
	@p1 ld.global r9, [r8]
	@p1 and  r9, r9, 63         ; bin = value & 63
	@p1 shl  r9, r9, 2
	mov  r10, 1
	@p1 atom.add.shared r11, [r9], r10
	bar.sync
	; first 64 threads merge shared bins into the global histogram
	@p0 shl  r12, r0, 2
	@p0 ld.shared r13, [r12]
	@p0 ld.param r14, [4]
	@p0 iadd r14, r14, r12
	@p0 atom.add.global r15, [r14], r13
	exit
`

var histogramKernel = &Source{File: "internal/kernels/extras.go", Src: histogramSrc}

var histogramBench = &Benchmark{
	Name:     "Histogram",
	Category: "Extra/Primitives",
	Desc:     fmt.Sprintf("%d-bin histogram of %d values (shared atomics + merge)", histBins, histN),
	Build:    buildHistogram,
	kernels:  []*Source{histogramKernel},
}

func buildHistogram(g *sim.GPU) (*Run, error) {
	prog, err := histogramKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(107))
	data := make([]uint32, histN)
	want := make([]uint32, histBins)
	for i := range data {
		data[i] = rng.Uint32()
		want[data[i]&63]++
	}
	ddata := g.Mem.MustAlloc(4 * histN)
	dbins := g.Mem.MustAlloc(4 * histBins)
	if err := g.Mem.WriteWords(ddata, data); err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:  prog,
		GridX: histN / 256, GridY: 1,
		BlockX: 256, BlockY: 1,
		SharedBytes: prog.SharedBytes,
		Params:      mem.NewParams(ddata, dbins, histN),
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dbins, histBins)
		if err != nil {
			return err
		}
		for b := range got {
			if got[b] != want[b] {
				return fmt.Errorf("bin %d = %d, want %d", b, got[b], want[b])
			}
		}
		return nil
	}
	return &Run{
		Steps:    []Step{{Kernel: k}},
		Check:    check,
		InBytes:  4 * histN,
		OutBytes: 4 * histBins,
	}, nil
}
