// Package mem models the GPGPU memory system: a flat global memory,
// paged on first store, with a bump allocator (standing in for
// cudaMalloc), per-block shared memory, a read-only kernel parameter
// space, and the two access-cost calculators the timing model needs —
// global coalescing into 128-byte segments and shared-memory
// bank-conflict counting.
//
// Warped-DMR assumes memory is ECC-protected (as on Fermi), so the
// simulator treats loaded data as always correct and DMR only verifies
// address computation; nothing in this package injects faults.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// pageShift sizes the pages global memory is allocated in: 64 KB.
const pageShift = 16

// page is one allocated stretch of global memory, held as the 32-bit
// little-endian words every global access reads and writes.
type page [1 << (pageShift - 2)]uint32

// Global is the device global memory: a flat byte-addressable space
// shared by all SMs, plus a bump allocator. Storage is a table of
// fixed-size pages allocated on first store; a load from a page never
// stored to reads zero, as a zero-filled memory would. A large device
// therefore costs only the pages a workload touches.
type Global struct {
	pages []*page
	size  int
	brk   uint32
}

// NewGlobal creates a global memory of the given size in bytes.
// Address 0 is kept unallocated so 0 can serve as a null pointer.
func NewGlobal(size int) *Global {
	if size < 512 {
		size = 512
	}
	n := (size + 1<<pageShift - 1) >> pageShift
	return &Global{pages: make([]*page, n), size: size, brk: 256}
}

// Size returns the total size in bytes.
func (g *Global) Size() int { return g.size }

// Allocated returns the end of the allocated extent, the allocator's
// break: every address Alloc has handed out lies below it.
func (g *Global) Allocated() uint32 { return g.brk }

// Alloc reserves n bytes and returns the device address. Allocations
// are 256-byte aligned, like cudaMalloc, so unit-stride warp accesses
// from element 0 coalesce into whole segments.
func (g *Global) Alloc(n int) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: negative allocation %d", n)
	}
	aligned := (uint32(n) + 255) &^ 255
	if uint64(g.brk)+uint64(aligned) > uint64(g.size) {
		return 0, fmt.Errorf("mem: out of global memory (want %d, used %d of %d)", n, g.brk, g.size)
	}
	addr := g.brk
	g.brk += aligned
	return addr, nil
}

// MustAlloc is Alloc that panics on exhaustion; for test and kernel setup.
func (g *Global) MustAlloc(n int) uint32 {
	a, err := g.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Load32 reads a 32-bit little-endian word. Out-of-range or misaligned
// accesses return an error (the simulator raises it as a kernel fault).
func (g *Global) Load32(addr uint32) (uint32, error) {
	if err := g.check(addr); err != nil {
		return 0, err
	}
	p := g.pages[addr>>pageShift]
	if p == nil {
		return 0, nil
	}
	return p[addr%(1<<pageShift)/4], nil
}

// Store32 writes a 32-bit little-endian word, allocating its page on
// the first store to it.
func (g *Global) Store32(addr, val uint32) error {
	if err := g.check(addr); err != nil {
		return err
	}
	p := g.pages[addr>>pageShift]
	if p == nil {
		p = new(page)
		g.pages[addr>>pageShift] = p
	}
	p[addr%(1<<pageShift)/4] = val
	return nil
}

// AtomicAdd32 adds val to the word at addr and returns the old value.
// The simulator serializes all lanes, so no locking is needed.
func (g *Global) AtomicAdd32(addr, val uint32) (uint32, error) {
	old, err := g.Load32(addr)
	if err != nil {
		return 0, err
	}
	if err := g.Store32(addr, old+val); err != nil {
		return 0, err
	}
	return old, nil
}

func (g *Global) check(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned 32-bit access at 0x%x", addr)
	}
	if uint64(addr)+4 > uint64(g.size) {
		return fmt.Errorf("mem: global access out of range at 0x%x (size 0x%x)", addr, g.size)
	}
	return nil
}

// --- host-side convenience accessors (cudaMemcpy stand-ins) ---

// WriteWords copies 32-bit words from the host slice into device memory.
func (g *Global) WriteWords(addr uint32, words []uint32) error {
	for i, w := range words {
		if err := g.Store32(addr+uint32(4*i), w); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords copies n 32-bit words out of device memory.
func (g *Global) ReadWords(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		w, err := g.Load32(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// WriteFloats and ReadFloats are WriteWords/ReadWords with float32 views.
func (g *Global) WriteFloats(addr uint32, vals []float32) error {
	words := make([]uint32, len(vals))
	for i, v := range vals {
		words[i] = math.Float32bits(v)
	}
	return g.WriteWords(addr, words)
}

func (g *Global) ReadFloats(addr uint32, n int) ([]float32, error) {
	words, err := g.ReadWords(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i, w := range words {
		out[i] = math.Float32frombits(w)
	}
	return out, nil
}

// Shared is one thread block's shared memory.
type Shared struct {
	data []byte
}

// NewShared creates a shared memory of the given size.
func NewShared(size int) *Shared { return &Shared{data: make([]byte, size)} }

// Size returns the shared memory size in bytes.
func (s *Shared) Size() int { return len(s.data) }

// Load32 reads a 32-bit word from shared memory.
func (s *Shared) Load32(addr uint32) (uint32, error) {
	if err := s.check(addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s.data[addr:]), nil
}

// Store32 writes a 32-bit word to shared memory.
func (s *Shared) Store32(addr, val uint32) error {
	if err := s.check(addr); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(s.data[addr:], val)
	return nil
}

// AtomicAdd32 adds val at addr, returning the old value.
func (s *Shared) AtomicAdd32(addr, val uint32) (uint32, error) {
	old, err := s.Load32(addr)
	if err != nil {
		return 0, err
	}
	return old, s.Store32(addr, old+val)
}

func (s *Shared) check(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned shared access at 0x%x", addr)
	}
	if uint64(addr)+4 > uint64(len(s.data)) {
		return fmt.Errorf("mem: shared access out of range at 0x%x (size 0x%x)", addr, len(s.data))
	}
	return nil
}

// Params is the read-only kernel parameter space.
type Params struct {
	words []uint32
}

// NewParams builds a parameter block from 32-bit words.
func NewParams(words ...uint32) *Params {
	cp := make([]uint32, len(words))
	copy(cp, words)
	return &Params{words: cp}
}

// Load32 reads parameter word at a byte offset.
func (p *Params) Load32(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned param access at 0x%x", addr)
	}
	i := int(addr / 4)
	if i >= len(p.words) {
		return 0, fmt.Errorf("mem: param access out of range at 0x%x (%d words)", addr, len(p.words))
	}
	return p.words[i], nil
}

// SegmentBases returns the base addresses of the distinct aligned
// segments of segBytes that the active lanes' 4-byte accesses touch, in
// lane order: the memory transactions a Fermi-style coalescer issues.
// The timing model probes the caches once per base and charges one
// LD/ST occupancy cycle per segment. The bases are appended to buf[:0];
// a warp has at most 32 lanes, so a buffer of capacity 32 keeps the
// per-memory-instruction issue path allocation-free.
func SegmentBases(buf, addrs []uint32, active uint32, segBytes int) []uint32 {
	seg := uint32(segBytes)
	bases := buf[:0]
	var seen laneSet
	for lane, a := range addrs {
		if active&(1<<uint(lane)) == 0 {
			continue
		}
		b := a / seg * seg
		// Neighbouring lanes mostly share a segment: test the last new
		// base before the set.
		if n := len(bases); n > 0 && bases[n-1] == b {
			continue
		}
		if _, added := seen.insert(b); added {
			bases = append(bases, b)
		}
	}
	return bases
}

// BankConflictDegree returns the maximum number of active lanes mapping
// to the same shared-memory bank (word-interleaved across numBanks).
// Lanes accessing the same word are broadcast and count once.
// The result is the serialization factor: 1 means conflict-free.
func BankConflictDegree(addrs []uint32, active uint32, numBanks int) int {
	if numBanks <= 0 {
		numBanks = 32
	}
	// Count the distinct words touched (same-word accesses broadcast)
	// per bank as they are discovered. At most 32 lanes participate, so
	// fixed-size sets beat per-instruction map allocations. Bank b
	// counts in perBank[b], or, for bank counts beyond any real shared
	// memory, in the slot the banks set gives it.
	var words, banks laneSet
	var perBank [64]uint8
	max, last := uint8(1), ^uint32(0)
	for lane, a := range addrs {
		if active&(1<<uint(lane)) == 0 {
			continue
		}
		w := a / 4
		if w == last {
			continue
		}
		last = w
		if _, added := words.insert(w); !added {
			continue
		}
		slot := w % uint32(numBanks)
		if numBanks > len(perBank) {
			slot, _ = banks.insert(slot)
		}
		perBank[slot]++
		if perBank[slot] > max {
			max = perBank[slot]
		}
	}
	return int(max)
}

// laneSet is a set of up to 32 keys, one warp's lanes, in a fixed-size
// open-addressed table: linear probing over 64 slots, whose occupancy
// is one bit each, so an empty set costs nothing to clear.
type laneSet struct {
	used uint64
	keys [64]uint32
}

// insert adds k and returns its slot, and whether it was absent.
func (s *laneSet) insert(k uint32) (slot uint32, added bool) {
	i := k * 0x9E3779B1 >> 26 // Fibonacci hashing to 6 bits
	for ; s.used&(1<<i) != 0; i = (i + 1) & 63 {
		if s.keys[i] == k {
			return i, false
		}
	}
	s.used |= 1 << i
	s.keys[i] = k
	return i, true
}
