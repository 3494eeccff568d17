package kernels

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"warped/internal/arch"
	"warped/internal/sim"
)

// scheduleVariants are machine configurations that keep every kernel's
// semantics and change only its timing: which warps issue when, and how
// blocks land on SMs.
func scheduleVariants() map[string]arch.Config {
	v := map[string]arch.Config{
		"warped": arch.WarpedDMRConfig(),
		"paper":  arch.PaperConfig(),
	}
	with := func(name string, edit func(c *arch.Config)) {
		c := arch.WarpedDMRConfig()
		edit(&c)
		v[name] = c
	}
	with("gto", func(c *arch.Config) { c.Sched = arch.SchedGTO })
	with("1sm", func(c *arch.Config) { c.NumSMs = 1 })
	with("7sm", func(c *arch.Config) { c.NumSMs = 7 })
	with("nocache", func(c *arch.Config) { c.ModelCaches = false })
	with("slowdram", func(c *arch.Config) { c.GlobalLat *= 3; c.DRAMSegPerCyc /= 4 })
	with("1block", func(c *arch.Config) { c.MaxBlocksPerSM = 1 })
	with("slowalu", func(c *arch.Config) { c.SPLat *= 3; c.SFULat *= 3 })
	return v
}

// TestScheduleIndependentResults checks the static verifier's
// race-freedom claim against the simulator's schedules: each Table-4
// benchmark, which verifies clean, must validate and leave the same
// global memory, byte for byte, under every timing variant.
func TestScheduleIndependentResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Table-4 benchmark under nine machine variants")
	}
	if raceEnabled {
		t.Skip("99 simulations under the race runtime; CI runs this check without -race")
	}
	variants := scheduleVariants()
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var want [sha256.Size]byte
			first := ""
			for name, cfg := range variants {
				sum, err := globalDigest(b, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch {
				case first == "":
					want, first = sum, name
				case sum != want:
					t.Errorf("global memory after %s differs from after %s", name, first)
				}
			}
		})
	}
}

// globalDigest runs b once through Attempt with validation and returns
// the SHA-256 of its global memory below the allocator's break.
func globalDigest(b *Benchmark, cfg arch.Config) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	digested := *b
	digested.Build = func(g *sim.GPU) (*Run, error) {
		run, err := b.Build(g)
		if err != nil {
			return nil, err
		}
		check := run.Check
		run.Check = func(g *sim.GPU) error {
			if check != nil {
				if err := check(g); err != nil {
					return err
				}
			}
			words, err := g.Mem.ReadWords(0, int(g.Mem.Allocated()/4))
			if err != nil {
				return err
			}
			h := sha256.New()
			_ = binary.Write(h, binary.LittleEndian, words)
			h.Sum(sum[:0])
			return nil
		}
		return run, nil
	}
	_, _, err := Attempt(context.Background(), cfg, &digested, sim.LaunchOpts{}, true)
	return sum, err
}
