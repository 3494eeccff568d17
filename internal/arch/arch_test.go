package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperConfigMatchesTable3(t *testing.T) {
	c := PaperConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The values the paper fixes in Table 3.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", c.NumSMs, 30},
		{"WarpSize", c.WarpSize, 32},
		{"MaxThreadsPerSM", c.MaxThreadsPerSM, 1024},
		{"NumRegBanks", c.NumRegBanks, 32},
		{"SharedMemBytes", c.SharedMemBytes, 64 * 1024},
		{"ClusterSize", c.ClusterSize, 4},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
	if c.ClockNS != 1.25 {
		t.Errorf("ClockNS = %v, want 1.25 (800 MHz)", c.ClockNS)
	}
	if c.DMR != DMROff {
		t.Errorf("baseline config must have DMR off, got %v", c.DMR)
	}
}

func TestWarpedDMRConfig(t *testing.T) {
	c := WarpedDMRConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.DMR != DMRFull {
		t.Errorf("DMR = %v, want full", c.DMR)
	}
	if c.Mapping != MapClusterRR {
		t.Errorf("Mapping = %v, want clusterRR", c.Mapping)
	}
	if c.ReplayQSize != 10 {
		t.Errorf("ReplayQSize = %d, want 10 (paper's choice)", c.ReplayQSize)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"warp size 0", func(c *Config) { c.WarpSize = 0 }},
		{"warp size 33", func(c *Config) { c.WarpSize = 33 }},
		{"cluster not dividing warp", func(c *Config) { c.ClusterSize = 5 }},
		{"cluster zero", func(c *Config) { c.ClusterSize = 0 }},
		{"threads below warp", func(c *Config) { c.MaxThreadsPerSM = 16 }},
		{"no blocks", func(c *Config) { c.MaxBlocksPerSM = 0 }},
		{"negative shared", func(c *Config) { c.SharedMemBytes = -1 }},
		{"negative replayq", func(c *Config) { c.ReplayQSize = -1 }},
		{"zero SP latency", func(c *Config) { c.SPLat = 0 }},
		{"zero coalesce", func(c *Config) { c.CoalesceBytes = 0 }},
		{"zero banks", func(c *Config) { c.NumSharedBanks = 0 }},
		{"zero DRAM bw", func(c *Config) { c.DRAMSegPerCyc = 0 }},
		{"zero clock", func(c *Config) { c.ClockNS = 0 }},
	}
	for _, m := range mutations {
		c := PaperConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", m.name)
		}
	}
}

func TestLaneMappingLinear(t *testing.T) {
	c := PaperConfig()
	c.Mapping = MapLinear
	for th := 0; th < 32; th++ {
		if got := c.LaneForThread(th); got != th {
			t.Fatalf("linear LaneForThread(%d) = %d", th, got)
		}
	}
}

func TestLaneMappingClusterRR(t *testing.T) {
	c := PaperConfig()
	c.Mapping = MapClusterRR
	// Thread i goes to cluster i mod 8 (paper §4.2): thread 0 -> lane 0,
	// thread 1 -> cluster 1 -> lane 4, thread 8 -> cluster 0 slot 1 -> lane 1.
	cases := map[int]int{0: 0, 1: 4, 2: 8, 7: 28, 8: 1, 9: 5, 31: 31}
	for th, want := range cases {
		if got := c.LaneForThread(th); got != want {
			t.Errorf("clusterRR LaneForThread(%d) = %d, want %d", th, got, want)
		}
	}
}

func TestLaneMappingBijection(t *testing.T) {
	for _, m := range []MappingPolicy{MapLinear, MapClusterRR} {
		for _, cluster := range []int{1, 2, 4, 8, 16, 32} {
			c := PaperConfig()
			c.Mapping = m
			c.ClusterSize = cluster
			seen := make(map[int]bool)
			for th := 0; th < 32; th++ {
				lane := c.LaneForThread(th)
				if lane < 0 || lane >= 32 {
					t.Fatalf("%v/%d: lane %d out of range", m, cluster, lane)
				}
				if seen[lane] {
					t.Fatalf("%v/%d: lane %d assigned twice", m, cluster, lane)
				}
				seen[lane] = true
				if back := c.ThreadForLane(lane); back != th {
					t.Fatalf("%v/%d: ThreadForLane(LaneForThread(%d)) = %d", m, cluster, th, back)
				}
			}
		}
	}
}

func TestLaneMappingRoundTripQuick(t *testing.T) {
	c := WarpedDMRConfig()
	f := func(th uint8) bool {
		t := int(th % 32)
		return c.ThreadForLane(c.LaneForThread(t)) == t
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if MapLinear.String() != "linear" || MapClusterRR.String() != "clusterRR" {
		t.Error("MappingPolicy String broken")
	}
	for m, want := range map[DMRMode]string{
		DMROff: "off", DMRIntra: "intra", DMRInter: "inter",
		DMRFull: "full", DMRTemporalAll: "dmtr",
	} {
		if m.String() != want {
			t.Errorf("DMRMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestParseModes: ParseDMR and ParseMapping accept what String prints,
// in any case, plus the mapping aliases the CLIs and job spec take.
func TestParseModes(t *testing.T) {
	for _, m := range []DMRMode{DMROff, DMRIntra, DMRInter, DMRFull, DMRTemporalAll} {
		for _, s := range []string{m.String(), strings.ToUpper(m.String())} {
			if got, err := ParseDMR(s); err != nil || got != m {
				t.Errorf("ParseDMR(%q) = %v, %v; want %v", s, got, err, m)
			}
		}
	}
	for s, want := range map[string]MappingPolicy{
		"linear": MapLinear, "clusterRR": MapClusterRR, "rr": MapClusterRR, "CROSS": MapClusterRR,
	} {
		if got, err := ParseMapping(s); err != nil || got != want {
			t.Errorf("ParseMapping(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDMR("sideways"); err == nil {
		t.Error("ParseDMR accepted an unknown mode")
	}
	if _, err := ParseMapping("diagonal"); err == nil {
		t.Error("ParseMapping accepted an unknown mapping")
	}
}

func TestDerivedGeometry(t *testing.T) {
	c := PaperConfig()
	if c.NumClusters() != 8 {
		t.Errorf("NumClusters = %d, want 8", c.NumClusters())
	}
}
