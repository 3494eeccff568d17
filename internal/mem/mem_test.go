package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal(1 << 16)
	a := g.MustAlloc(3)
	b := g.MustAlloc(17)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-byte aligned: %d %d", a, b)
	}
	if b <= a {
		t.Error("bump allocator went backwards")
	}
	if a == 0 {
		t.Error("address 0 must stay unallocated (null)")
	}
}

func TestAllocExhaustion(t *testing.T) {
	g := NewGlobal(512)
	if _, err := g.Alloc(1 << 20); err == nil {
		t.Error("expected out-of-memory error")
	}
	if _, err := g.Alloc(-1); err == nil {
		t.Error("expected negative-size error")
	}
}

func TestGlobalLoadStore(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(16)
	if err := g.Store32(a, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Errorf("load = %x", v)
	}
}

func TestGlobalFaults(t *testing.T) {
	g := NewGlobal(1 << 12)
	if _, err := g.Load32(2); err == nil {
		t.Error("misaligned load must fault")
	}
	if err := g.Store32(1<<12, 0); err == nil {
		t.Error("out-of-range store must fault")
	}
	if _, err := g.Load32(1<<12 - 2); err == nil {
		t.Error("straddling load must fault")
	}
}

func TestAtomicAdd(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(4)
	if err := g.Store32(a, 10); err != nil {
		t.Fatal(err)
	}
	old, err := g.AtomicAdd32(a, 5)
	if err != nil || old != 10 {
		t.Fatalf("old = %d, err = %v", old, err)
	}
	v, _ := g.Load32(a)
	if v != 15 {
		t.Errorf("after add = %d", v)
	}
}

func TestWordAndFloatViews(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(64)
	in := []float32{1.5, -2.25, 0, 3e8}
	if err := g.WriteFloats(a, in); err != nil {
		t.Fatal(err)
	}
	out, err := g.ReadFloats(a, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("float[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	words := []uint32{1, 2, 3}
	if err := g.WriteWords(a, words); err != nil {
		t.Fatal(err)
	}
	w, err := g.ReadWords(a, 3)
	if err != nil || w[2] != 3 {
		t.Fatalf("words = %v, err = %v", w, err)
	}
}

func TestSharedMemory(t *testing.T) {
	s := NewShared(256)
	if err := s.Store32(252, 42); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Load32(252)
	if v != 42 {
		t.Errorf("shared load = %d", v)
	}
	if err := s.Store32(256, 0); err == nil {
		t.Error("OOB shared store must fault")
	}
	if _, err := s.Load32(3); err == nil {
		t.Error("misaligned shared load must fault")
	}
	old, err := s.AtomicAdd32(0, 7)
	if err != nil || old != 0 {
		t.Fatal("shared atomic broken")
	}
	v, _ = s.Load32(0)
	if v != 7 {
		t.Error("shared atomic result wrong")
	}
}

func TestParams(t *testing.T) {
	p := NewParams(11, 22, 33)
	for i, want := range []uint32{11, 22, 33} {
		v, err := p.Load32(uint32(4 * i))
		if err != nil || v != want {
			t.Errorf("param %d = %d (%v), want %d", i, v, err, want)
		}
	}
	if _, err := p.Load32(12); err == nil {
		t.Error("param OOB must fault")
	}
	if _, err := p.Load32(2); err == nil {
		t.Error("misaligned param must fault")
	}
}

func TestCoalesceSegments(t *testing.T) {
	all := uint32(0xFFFFFFFF)
	// 32 consecutive 4-byte words = one 128-byte segment.
	var addrs []uint32
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint32(4*i))
	}
	if n := len(SegmentBases(nil, addrs, all, 128)); n != 1 {
		t.Errorf("unit-stride = %d segments, want 1", n)
	}
	// Stride 128: every lane its own segment.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if n := len(SegmentBases(nil, addrs, all, 128)); n != 32 {
		t.Errorf("stride-128 = %d segments, want 32", n)
	}
	// Only active lanes count.
	if n := len(SegmentBases(nil, addrs, 0x1, 128)); n != 1 {
		t.Errorf("single lane = %d segments, want 1", n)
	}
	if n := len(SegmentBases(nil, addrs, 0, 128)); n != 0 {
		t.Errorf("no lanes = %d segments, want 0", n)
	}
	// Broadcast: everyone loads the same word, in the segment at 256.
	for i := range addrs {
		addrs[i] = 260
	}
	if b := SegmentBases(nil, addrs, all, 128); len(b) != 1 || b[0] != 256 {
		t.Errorf("broadcast = bases %v, want [256]", b)
	}
}

func TestBankConflictDegree(t *testing.T) {
	all := uint32(0xFFFFFFFF)
	addrs := make([]uint32, 32)
	// Unit stride: conflict-free.
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 1 {
		t.Errorf("unit stride degree = %d, want 1", d)
	}
	// Stride 2 words: 2-way conflicts.
	for i := range addrs {
		addrs[i] = uint32(8 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 2 {
		t.Errorf("stride-2 degree = %d, want 2", d)
	}
	// Stride 32 words: all lanes hit bank 0 -> 32-way.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 32 {
		t.Errorf("stride-32 degree = %d, want 32", d)
	}
	// Same word everywhere: broadcast, no conflict.
	for i := range addrs {
		addrs[i] = 64
	}
	if d := BankConflictDegree(addrs, all, 32); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
	// Empty mask yields 1 (no serialization).
	if d := BankConflictDegree(addrs, 0, 32); d != 1 {
		t.Errorf("empty degree = %d, want 1", d)
	}
}

// Property: the conflict degree is between 1 and the active lane count,
// and the coalesced segment count never exceeds active lanes.
func TestAccessCostBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, mask uint32) bool {
		r := rand.New(rand.NewSource(seed))
		addrs := make([]uint32, 32)
		for i := range addrs {
			addrs[i] = uint32(r.Intn(1<<14)) &^ 3
		}
		active := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<i) != 0 {
				active++
			}
		}
		segs := len(SegmentBases(nil, addrs, mask, 128))
		deg := BankConflictDegree(addrs, mask, 32)
		if segs < 0 || segs > active {
			return false
		}
		if deg < 1 || (active > 0 && deg > active) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGlobalPagedOnFirstStore: device memory allocates a page on the
// first store to it, untouched pages read zero, and the address space,
// bounds and error text are those of a flat memory of the same size.
func TestGlobalPagedOnFirstStore(t *testing.T) {
	const size = 64 << 20
	g := NewGlobal(size)
	if g.Size() != size {
		t.Fatalf("Size = %d, want %d", g.Size(), size)
	}
	touched := func() int {
		n := 0
		for _, p := range g.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if v, err := g.Load32(size - 4); err != nil || v != 0 {
		t.Fatalf("untouched last word = %d, %v; want 0, nil", v, err)
	}
	if n := touched(); n != 0 {
		t.Fatalf("%d pages allocated by loads, want 0", n)
	}
	// Two stores in one page, one in another, the last at the top word.
	for _, a := range []uint32{256, 260, size - 4} {
		if err := g.Store32(a, a^0xA5A5A5A5); err != nil {
			t.Fatal(err)
		}
	}
	if n := touched(); n != 2 {
		t.Errorf("%d pages allocated, want 2", n)
	}
	for _, a := range []uint32{256, 260, size - 4} {
		if v, _ := g.Load32(a); v != a^0xA5A5A5A5 {
			t.Errorf("load 0x%x = %x, want %x", a, v, a^0xA5A5A5A5)
		}
	}
	if v, _ := g.Load32(264); v != 0 {
		t.Errorf("unwritten word in a touched page = %x, want 0", v)
	}
}

// TestGlobalErrorsUnchanged pins the exact fault text, which reaches
// job results as crash answers, on a size that is not a whole number
// of pages.
func TestGlobalErrorsUnchanged(t *testing.T) {
	g := NewGlobal(100_000)
	if err := g.Store32(99_996, 7); err != nil {
		t.Fatalf("top word store: %v", err)
	}
	for _, c := range []struct {
		addr uint32
		want string
	}{
		{100_000, "mem: global access out of range at 0x186a0 (size 0x186a0)"},
		{0xfffffffc, "mem: global access out of range at 0xfffffffc (size 0x186a0)"},
		{6, "mem: misaligned 32-bit access at 0x6"},
	} {
		if _, err := g.Load32(c.addr); err == nil || err.Error() != c.want {
			t.Errorf("Load32(0x%x) error %v, want %q", c.addr, err, c.want)
		}
		if err := g.Store32(c.addr, 1); err == nil || err.Error() != c.want {
			t.Errorf("Store32(0x%x) error %v, want %q", c.addr, err, c.want)
		}
	}
	if _, err := g.Alloc(200_000); err == nil || err.Error() != "mem: out of global memory (want 200000, used 256 of 100000)" {
		t.Errorf("Alloc error %v", err)
	}
}
