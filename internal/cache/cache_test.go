package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Sets: 64, Ways: 4, LineBytes: 128}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.SizeBytes() != 64*4*128 {
		t.Error("SizeBytes wrong")
	}
	for _, bad := range []Config{
		{Sets: 0, Ways: 4, LineBytes: 128},
		{Sets: 3, Ways: 4, LineBytes: 128},
		{Sets: 64, Ways: 0, LineBytes: 128},
		{Sets: 64, Ways: 4, LineBytes: 100},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted bad config %+v", bad)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, LineBytes: 128})
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	// Same line, different word.
	if !c.Access(0x107C) {
		t.Error("same-line access missed")
	}
	// Different line.
	if c.Access(0x2000) {
		t.Error("different line hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped on one set: 2 ways, lines mapping to set 0.
	c := New(Config{Sets: 1, Ways: 2, LineBytes: 128})
	a, b, d := uint32(0), uint32(128), uint32(256)
	c.Access(a) // miss, install
	c.Access(b) // miss, install
	c.Access(a) // hit: a is now MRU
	c.Access(d) // miss: must evict b (LRU)
	if !c.Lookup(a) {
		t.Error("MRU line evicted")
	}
	if c.Lookup(b) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(d) {
		t.Error("new line missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, LineBytes: 128})
	c.Access(0x1000)
	c.Invalidate(0x1040) // same line
	if c.Lookup(0x1000) {
		t.Error("invalidate missed the line")
	}
	c.Invalidate(0x9999) // absent: no-op, no panic
}

func TestLookupDoesNotAllocate(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, LineBytes: 128})
	if c.Lookup(0x4000) {
		t.Error("phantom hit")
	}
	if c.Access(0x4000) {
		t.Error("Lookup must not install lines")
	}
}

func TestReset(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, LineBytes: 128})
	c.Access(0x1000)
	c.Reset()
	if c.Lookup(0x1000) {
		t.Error("reset incomplete")
	}
}

// Property: a working set that fits in the cache has no capacity
// misses — after a warm-up pass every access hits.
func TestWorkingSetFitsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Sets: 8, Ways: 4, LineBytes: 64}
		c := New(cfg)
		// Pick distinct lines up to capacity, spread across sets.
		nLines := cfg.Sets * cfg.Ways
		addrs := make([]uint32, 0, nLines)
		for set := 0; set < cfg.Sets; set++ {
			for way := 0; way < cfg.Ways; way++ {
				lineAddr := uint32(way*cfg.Sets+set) * uint32(cfg.LineBytes)
				addrs = append(addrs, lineAddr+uint32(rng.Intn(cfg.LineBytes))&^3)
			}
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for _, a := range addrs {
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sink keeps New's result on the heap, so the count below is stable.
var sink *Cache

// TestNewAllocatesOneTagArray: a cache's tags are one flat array,
// however many sets it has, so New makes two allocations (the Cache
// and its tags) for one set as for the L2's 512.
func TestNewAllocatesOneTagArray(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; CI runs this guard without -race")
	}
	for _, sets := range []int{1, 64, 512, 4096} {
		cfg := Config{Sets: sets, Ways: 8, LineBytes: 128}
		if n := testing.AllocsPerRun(10, func() { sink = New(cfg) }); n != 2 {
			t.Errorf("Sets %d: New makes %.0f allocations, want 2 (the Cache and one tag array)", sets, n)
		}
	}
}
