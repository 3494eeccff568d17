package kernels

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"warped/internal/arch"
	"warped/internal/sim"
	"warped/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// scheduleStatsGolden pins the SHA-256 of every schedule-check run's
// Stats JSON, one "benchmark/variant digest" line per run, sorted.
// Regenerate with `go test ./internal/kernels -run
// TestScheduleIndependentResults -update` only for an intended change
// to what the simulator reports.
var scheduleStatsGolden = filepath.Join("testdata", "schedule_stats.golden")

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
// global memory, byte for byte, under every timing variant. Each run's
// Stats must also hash to its line in scheduleStatsGolden, so every
// Stats field is pinned under the schedulers, SM counts, cache and
// occupancy settings the variants cover.
func TestScheduleIndependentResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Table-4 benchmark under nine machine variants")
	}
	if raceEnabled {
		t.Skip("99 simulations under the race runtime; CI runs this check without -race")
	}
	golden := readScheduleGolden(t)
	variants := scheduleVariants()
	var mu sync.Mutex
	got := map[string]string{}
	// Cleanups run after the parallel subtests have finished.
	t.Cleanup(func() {
		if *updateGolden && !t.Failed() {
			writeScheduleGolden(t, got)
		}
	})
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var want [sha256.Size]byte
			first := ""
			for name, cfg := range variants {
				sum, st, err := globalDigest(b, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch {
				case first == "":
					want, first = sum, name
				case sum != want:
					t.Errorf("global memory after %s differs from after %s", name, first)
				}
				data, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				digest := sha256.Sum256(data)
				key, hexsum := b.Name+"/"+name, hex.EncodeToString(digest[:])
				mu.Lock()
				got[key] = hexsum
				mu.Unlock()
				if !*updateGolden && golden[key] != hexsum {
					t.Errorf("%s: Stats digest %s, golden %q; Stats:\n%s", key, hexsum, golden[key], data)
				}
			}
		})
	}
}

// readScheduleGolden loads scheduleStatsGolden as a map from
// "benchmark/variant" to its Stats digest (empty under -update).
func readScheduleGolden(t *testing.T) map[string]string {
	t.Helper()
	if *updateGolden {
		return nil
	}
	data, err := os.ReadFile(scheduleStatsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", scheduleStatsGolden, line)
		}
		m[key] = sum
	}
	return m
}

func writeScheduleGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k, got[k])
	}
	if err := os.WriteFile(scheduleStatsGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// globalDigest runs b once through Attempt with validation and returns
// the SHA-256 of its global memory below the allocator's break, and the
// run's Stats.
func globalDigest(b *Benchmark, cfg arch.Config) ([sha256.Size]byte, *stats.Stats, error) {
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
	st, _, err := Attempt(context.Background(), cfg, &digested, sim.LaunchOpts{}, true)
	return sum, st, err
}
