// Package cache implements the set-associative cache model used for
// the GPU's L1 (per SM) and L2 (chip-wide) data caches. The simulator
// is timing-directed: caches decide *latency*, while data always comes
// from the flat functional memory, so the model tracks only tags.
//
// The Fermi-era policies modeled: allocate-on-read-miss, LRU
// replacement, and write-through without write-allocate (stores go to
// DRAM and do not install lines, matching Fermi's L1 behaviour for
// global stores).
package cache

import "fmt"

// Config sizes a cache.
type Config struct {
	Sets      int // number of sets (power of two)
	Ways      int // associativity
	LineBytes int // line size (power of two)
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache: Sets must be a positive power of two, got %d", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	}
	return nil
}

// SizeBytes returns the cache capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// line is one tag-store entry.
type line struct {
	tag   uint32
	valid bool
	lru   uint64
}

// Cache is a set-associative tag store: one flat array of Sets*Ways
// lines, set-major. It counts no hits or misses; callers count the
// outcomes Access returns.
type Cache struct {
	cfg   Config
	lines []line
	clock uint64
}

// New builds a cache; panics on invalid configuration (caller bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways)}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// set returns the ways of the set addr maps to, and addr's tag.
func (c *Cache) set(addr uint32) (ways []line, tag uint32) {
	lineAddr := addr / uint32(c.cfg.LineBytes)
	first := (int(lineAddr) & (c.cfg.Sets - 1)) * c.cfg.Ways
	return c.lines[first : first+c.cfg.Ways], lineAddr / uint32(c.cfg.Sets)
}

// Lookup probes the cache without modifying state.
func (c *Cache) Lookup(addr uint32) bool {
	ways, tag := c.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// Access probes the cache for a read; on a miss the line is allocated
// with LRU replacement. Returns whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.clock++
	ways, tag := c.set(addr)
	victim := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			return true
		}
		if ways[i].lru < ways[victim].lru || !ways[i].valid && ways[victim].valid {
			victim = i
		}
	}
	// Prefer an invalid way, else the least recently used.
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	ways[victim] = line{tag: tag, valid: true, lru: c.clock}
	return false
}

// Invalidate drops the line containing addr if present (used by
// write-through stores so later reads observe DRAM latency honestly
// rather than hitting a stale tag installed by another warp's read).
func (c *Cache) Invalidate(addr uint32) {
	ways, tag := c.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].valid = false
			return
		}
	}
}

// Reset clears all tags.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
}
