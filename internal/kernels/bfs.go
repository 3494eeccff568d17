package kernels

import (
	"fmt"
	"math/rand"

	"warped/internal/mem"
	"warped/internal/sim"
)

// BFS: level-synchronous breadth-first search over a CSR graph, one
// thread per vertex per level (the Parboil/Harish-Narayanan kernel
// shape). Only frontier vertices do edge work, so most lanes idle most
// of the time — the paper reports >40% of BFS instructions executing
// with a single active thread, making BFS the showcase for intra-warp
// DMR (near-100% coverage at near-zero overhead).
const (
	bfsNodes  = 2000 // not a multiple of the block size: tail warps
	bfsSource = 0
	bfsUnseen = 0xFFFFFFFF
)

// params: [0]=rowPtr, [4]=colIdx, [8]=levels, [12]=changedFlag,
// [16]=curLevel, [20]=numNodes.
const bfsSrc = `
.kernel bfs_level
	mov  r0, %ctaid.x
	mov  r1, %ntid.x
	imad r2, r0, r1, %tid.x     ; vertex v
	ld.param r3, [20]           ; numNodes
	setp.ge.s32 p0, r2, r3
	@p0 exit
	ld.param r4, [8]            ; levels
	shl  r5, r2, 2
	iadd r5, r4, r5
	ld.global r6, [r5]          ; levels[v]
	ld.param r7, [16]           ; curLevel
	setp.ne.u32 p0, r6, r7
	@p0 exit                    ; not on the frontier
	; frontier vertex: relax all neighbours
	ld.param r8, [0]            ; rowPtr
	shl  r9, r2, 2
	iadd r9, r8, r9
	ld.global r10, [r9]         ; e = rowPtr[v]
	ld.global r11, [r9+4]       ; end = rowPtr[v+1]
	ld.param r12, [4]           ; colIdx
	iadd r13, r7, 1             ; next level
EDGE:
	setp.ge.s32 p1, r10, r11
	@p1 bra DONE
	shl  r14, r10, 2
	iadd r14, r12, r14
	ld.global r15, [r14]        ; neighbour c
	shl  r16, r15, 2
	iadd r16, r4, r16
	ld.global r17, [r16]        ; levels[c]
	setp.eq.u32 p2, r17, 0xFFFFFFFF
	@p2 st.global [r16], r13    ; levels[c] = cur+1
	@p2 ld.param r18, [12]
	@p2 st.global [r18], r13    ; changed = nonzero
	iadd r10, r10, 1
	bra EDGE
DONE:
	exit
`

var bfsKernel = &Source{File: "internal/kernels/bfs.go", Src: bfsSrc}

type bfsGraph struct {
	rowPtr []uint32
	colIdx []uint32
}

// buildBFSGraph builds a small-world graph: a ring lattice (i±1, i±2)
// plus random chords. The lattice keeps the diameter around 8-10
// levels so the frontier stays narrow for several launches.
func buildBFSGraph(n int, rng *rand.Rand) *bfsGraph {
	adj := make([][]uint32, n)
	add := func(a, b int) {
		adj[a] = append(adj[a], uint32(b))
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
		add(i, (i-1+n)%n)
		add(i, (i+2)%n)
		add(i, (i-2+n)%n)
	}
	for i := 0; i < n/8; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b)
			add(b, a)
		}
	}
	g := &bfsGraph{rowPtr: make([]uint32, n+1)}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + uint32(len(adj[i]))
		g.colIdx = append(g.colIdx, adj[i]...)
	}
	return g
}

// hostBFS returns per-vertex levels (bfsUnseen if unreachable).
func hostBFS(g *bfsGraph, src int) []uint32 {
	n := len(g.rowPtr) - 1
	lv := make([]uint32, n)
	for i := range lv {
		lv[i] = bfsUnseen
	}
	lv[src] = 0
	frontier := []int{src}
	for depth := uint32(1); len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, c := range g.colIdx[g.rowPtr[v]:g.rowPtr[v+1]] {
				if lv[c] == bfsUnseen {
					lv[c] = depth
					next = append(next, int(c))
				}
			}
		}
		frontier = next
	}
	return lv
}

var bfsBench = &Benchmark{
	Name:     "BFS",
	Category: "Linear Algebra/Primitives",
	Desc:     fmt.Sprintf("level-synchronous BFS over a %d-vertex small-world graph", bfsNodes),
	Build:    buildBFS,
	kernels:  []*Source{bfsKernel},
}

func buildBFS(g *sim.GPU) (*Run, error) {
	prog, err := bfsKernel.Program()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(3))
	graph := buildBFSGraph(bfsNodes, rng)
	want := hostBFS(graph, bfsSource)
	levels := int(0)
	for _, l := range want {
		if l != bfsUnseen && int(l) > levels {
			levels = int(l)
		}
	}

	drow := g.Mem.MustAlloc(4 * len(graph.rowPtr))
	dcol := g.Mem.MustAlloc(4 * len(graph.colIdx))
	dlev := g.Mem.MustAlloc(4 * bfsNodes)
	dchg := g.Mem.MustAlloc(4)
	if err := g.Mem.WriteWords(drow, graph.rowPtr); err != nil {
		return nil, err
	}
	if err := g.Mem.WriteWords(dcol, graph.colIdx); err != nil {
		return nil, err
	}
	init := make([]uint32, bfsNodes)
	for i := range init {
		init[i] = bfsUnseen
	}
	init[bfsSource] = 0
	if err := g.Mem.WriteWords(dlev, init); err != nil {
		return nil, err
	}

	// The host knows the level count up front (it ran the reference BFS),
	// so the launch sequence is fixed: one kernel per frontier depth.
	var steps []Step
	for l := 0; l <= levels; l++ {
		steps = append(steps, Step{Kernel: &sim.Kernel{
			Prog:  prog,
			GridX: (bfsNodes + 255) / 256, GridY: 1,
			BlockX: 256, BlockY: 1,
			Params: mem.NewParams(drow, dcol, dlev, dchg, uint32(l), bfsNodes),
		}})
	}
	check := func(g *sim.GPU) error {
		got, err := g.Mem.ReadWords(dlev, bfsNodes)
		if err != nil {
			return err
		}
		for v := range got {
			if got[v] != want[v] {
				return fmt.Errorf("level[%d] = %d, want %d", v, got[v], want[v])
			}
		}
		return nil
	}
	return &Run{
		Steps:    steps,
		Check:    check,
		InBytes:  4 * int64(len(graph.rowPtr)+len(graph.colIdx)+bfsNodes),
		OutBytes: 4 * bfsNodes,
	}, nil
}
