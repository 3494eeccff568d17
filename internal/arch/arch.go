// Package arch defines the machine configuration for the simulated
// GPGPU and for the Warped-DMR error-detection hardware layered on top
// of it. A Config is immutable once a simulation starts; presets mirror
// the parameters in Table 3 of the Warped-DMR paper (MICRO-45, 2012).
package arch

import (
	"fmt"
	"strings"

	"warped/internal/cache"
)

// MappingPolicy selects how logical thread indices within a warp are
// assigned to physical SIMT lanes. The paper's baseline maps thread i
// to lane i ("linear"); its enhanced scheme assigns threads to SIMT
// clusters round-robin ("clusterRR"), which spreads the active threads
// of a partially-utilized warp across clusters and raises intra-warp
// DMR pairing opportunities (paper §4.2, +9.6% coverage).
type MappingPolicy int

const (
	// MapLinear assigns thread i to lane i (believed default on real GPUs).
	MapLinear MappingPolicy = iota
	// MapClusterRR assigns thread i to cluster (i mod #clusters),
	// slot (i / #clusters) within the cluster.
	MapClusterRR
)

func (m MappingPolicy) String() string {
	switch m {
	case MapLinear:
		return "linear"
	case MapClusterRR:
		return "clusterRR"
	default:
		return fmt.Sprintf("MappingPolicy(%d)", int(m))
	}
}

// ParseMapping parses a mapping name, case-insensitively: what String
// prints, plus "rr" and "cross" for clusterRR.
func ParseMapping(s string) (MappingPolicy, error) {
	switch strings.ToLower(s) {
	case "linear":
		return MapLinear, nil
	case "rr", "cross", "clusterrr":
		return MapClusterRR, nil
	}
	return 0, fmt.Errorf("arch: unknown mapping %q (want linear or rr)", s)
}

// SchedPolicy selects the warp scheduler's pick order.
type SchedPolicy int

const (
	// SchedLRR is loose round-robin: resume scanning after the last
	// issued warp (the baseline scheduler of GPGPU-Sim-era models).
	SchedLRR SchedPolicy = iota
	// SchedGTO is greedy-then-oldest: keep issuing from the same warp
	// until it stalls, then fall back to the oldest ready warp.
	SchedGTO
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedLRR:
		return "lrr"
	case SchedGTO:
		return "gto"
	default:
		return fmt.Sprintf("SchedPolicy(%d)", int(p))
	}
}

// DMRMode selects which parts of Warped-DMR are active.
type DMRMode int

const (
	// DMROff runs the plain machine with no error detection.
	DMROff DMRMode = iota
	// DMRIntra enables only intra-warp (spatial) DMR.
	DMRIntra
	// DMRInter enables only inter-warp (temporal) DMR with the ReplayQ.
	DMRInter
	// DMRFull enables both, i.e. complete Warped-DMR.
	DMRFull
	// DMRTemporalAll is the DMTR baseline: every instruction, full or
	// partial, is re-executed on its unit one cycle later (1-cycle-slack
	// SRT). Used only for the Fig. 10 comparison.
	DMRTemporalAll
)

func (m DMRMode) String() string {
	switch m {
	case DMROff:
		return "off"
	case DMRIntra:
		return "intra"
	case DMRInter:
		return "inter"
	case DMRFull:
		return "full"
	case DMRTemporalAll:
		return "dmtr"
	default:
		return fmt.Sprintf("DMRMode(%d)", int(m))
	}
}

// ParseDMR parses a DMR mode name as String prints it, case-insensitively.
func ParseDMR(s string) (DMRMode, error) {
	for m := DMROff; m <= DMRTemporalAll; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("arch: unknown DMR mode %q (want off, intra, inter, full or dmtr)", s)
}

// Config is the full machine description.
type Config struct {
	// --- chip geometry (paper Table 3) ---
	NumSMs          int // streaming multiprocessors per chip
	WarpSize        int // threads per warp (always 32 in this model)
	ClusterSize     int // SIMT lanes per cluster sharing one RFU (4 or 8)
	MaxThreadsPerSM int // resident thread contexts per SM
	MaxBlocksPerSM  int // resident thread blocks per SM
	NumRegBanks     int // register file banks per SM
	SharedMemBytes  int // shared memory per SM
	RegFileBytes    int // register file per SM (used for ReplayQ sizing ratio)

	// --- pipeline latencies in cycles (paper Fig. 7) ---
	SPLat     int     // simple ALU/FPU op latency on an SP
	SFULat    int     // special-function latency
	SharedLat int     // shared-memory load-to-use latency
	GlobalLat int     // global-memory load-to-use latency
	ClockNS   float64 // cycle period in nanoseconds (1.25 ns = 800 MHz)

	// --- front end ---
	// NumSchedulers is the warp schedulers per SM (paper §2.2: Fermi
	// has two, sharing LD/ST and SFU groups but owning their SPs; the
	// paper's DMR machine uses one). Warped-DMR requires one scheduler.
	NumSchedulers int
	// Sched is the warp-pick policy.
	Sched SchedPolicy

	// --- register file ---
	// ModelRegBankConflicts charges extra register-fetch cycles when an
	// instruction's source registers collide in the same bank (paper
	// §2.1: 2R1W/3R1W usually proceed without port stalls, but same-bank
	// operands fetch over multiple cycles behind the operand buffer).
	ModelRegBankConflicts bool

	// --- memory system ---
	CoalesceBytes  int     // segment size for coalescing (128 B)
	NumSharedBanks int     // shared memory banks
	DRAMSegPerCyc  float64 // chip-wide DRAM segments served per cycle

	// Data caches (timing-only tag stores; data always comes from the
	// functional memory). ModelCaches false reverts to a flat
	// GlobalLat for every global access.
	ModelCaches bool
	L1          cache.Config // per-SM L1 data cache
	L2          cache.Config // chip-wide shared L2
	L1Lat       int          // L1 hit load-to-use latency
	L2Lat       int          // L2 hit load-to-use latency

	// --- Warped-DMR knobs ---
	DMR         DMRMode
	ReplayQSize int           // entries per SM (0..10 in the paper sweep)
	Mapping     MappingPolicy // thread->lane mapping
	IdleDrain   bool          // drain one ReplayQ entry on idle issue cycles
	LaneShuffle bool          // shuffle replay lanes within a cluster

	// Policy selects which eligible instructions the DMR engine
	// actually verifies (docs/POLICIES.md). The zero value protects
	// everything, byte-identical to the pre-policy engine; it is inert
	// when DMR is DMROff.
	Policy Policy
}

// PaperConfig returns the baseline machine of Table 3: 30 SMs, 32-wide
// SIMT, 4-lane SIMT clusters, Fermi-era latencies, DMR disabled.
func PaperConfig() Config {
	return Config{
		NumSMs:          30,
		WarpSize:        32,
		ClusterSize:     4,
		MaxThreadsPerSM: 1024,
		MaxBlocksPerSM:  8,
		NumRegBanks:     32,
		SharedMemBytes:  64 * 1024,
		RegFileBytes:    128 * 1024,

		SPLat:     4,
		SFULat:    16,
		SharedLat: 24,
		GlobalLat: 300,
		ClockNS:   1.25,

		NumSchedulers: 1,
		Sched:         SchedLRR,

		ModelRegBankConflicts: true,

		CoalesceBytes:  128,
		NumSharedBanks: 32,
		DRAMSegPerCyc:  1.7, // ~174 GB/s of 128 B segments at 800 MHz

		ModelCaches: true,
		L1:          cache.Config{Sets: 32, Ways: 4, LineBytes: 128},  // 16 KB
		L2:          cache.Config{Sets: 512, Ways: 8, LineBytes: 128}, // 512 KB
		L1Lat:       30,
		L2Lat:       120,

		DMR:         DMROff,
		ReplayQSize: 10,
		Mapping:     MapLinear,
		IdleDrain:   true,
		LaneShuffle: true,
	}
}

// WarpedDMRConfig returns the paper's recommended configuration:
// full Warped-DMR, 10-entry ReplayQ, cross (round-robin) mapping.
func WarpedDMRConfig() Config {
	c := PaperConfig()
	c.DMR = DMRFull
	c.Mapping = MapClusterRR
	return c
}

// NumClusters returns the number of SIMT clusters per warp.
func (c Config) NumClusters() int { return c.WarpSize / c.ClusterSize }

// RegBanksPerCluster returns how many register banks serve one SIMT
// cluster (4 on the paper's machine: 32 banks over 8 clusters).
func (c Config) RegBanksPerCluster() int {
	n := c.NumRegBanks / c.NumClusters()
	if n < 1 {
		n = 1
	}
	return n
}

// Validate reports the first configuration error found, or nil.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("arch: NumSMs must be positive, got %d", c.NumSMs)
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("arch: WarpSize must be in 1..32, got %d", c.WarpSize)
	case c.ClusterSize <= 0 || c.WarpSize%c.ClusterSize != 0:
		return fmt.Errorf("arch: ClusterSize %d must divide WarpSize %d", c.ClusterSize, c.WarpSize)
	case c.MaxThreadsPerSM < c.WarpSize:
		return fmt.Errorf("arch: MaxThreadsPerSM %d below WarpSize %d", c.MaxThreadsPerSM, c.WarpSize)
	case c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("arch: MaxBlocksPerSM must be positive, got %d", c.MaxBlocksPerSM)
	case c.SharedMemBytes < 0:
		return fmt.Errorf("arch: SharedMemBytes must be non-negative, got %d", c.SharedMemBytes)
	case c.ReplayQSize < 0:
		return fmt.Errorf("arch: ReplayQSize must be non-negative, got %d", c.ReplayQSize)
	case c.SPLat <= 0 || c.SFULat <= 0 || c.SharedLat <= 0 || c.GlobalLat <= 0:
		return fmt.Errorf("arch: execution latencies must be positive")
	case c.CoalesceBytes <= 0:
		return fmt.Errorf("arch: CoalesceBytes must be positive, got %d", c.CoalesceBytes)
	case c.NumSharedBanks <= 0:
		return fmt.Errorf("arch: NumSharedBanks must be positive, got %d", c.NumSharedBanks)
	case c.DRAMSegPerCyc <= 0:
		return fmt.Errorf("arch: DRAMSegPerCyc must be positive, got %v", c.DRAMSegPerCyc)
	case c.NumSchedulers < 1 || c.NumSchedulers > 2:
		return fmt.Errorf("arch: NumSchedulers must be 1 or 2, got %d", c.NumSchedulers)
	case c.NumSchedulers > 1 && c.DMR != DMROff:
		return fmt.Errorf("arch: Warped-DMR requires a single scheduler per SM (the Replay Checker watches one issue stream)")
	case c.ModelCaches && c.L1Lat <= 0:
		return fmt.Errorf("arch: L1Lat must be positive, got %d", c.L1Lat)
	case c.ModelCaches && c.L2Lat <= 0:
		return fmt.Errorf("arch: L2Lat must be positive, got %d", c.L2Lat)
	case c.ClockNS <= 0:
		return fmt.Errorf("arch: ClockNS must be positive, got %v", c.ClockNS)
	}
	if c.ModelCaches {
		if err := c.L1.Validate(); err != nil {
			return fmt.Errorf("arch: L1: %w", err)
		}
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("arch: L2: %w", err)
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	return nil
}

// LaneForThread maps a logical thread index within a warp to a physical
// SIMT lane according to the configured mapping policy.
func (c Config) LaneForThread(thread int) int {
	if c.Mapping == MapClusterRR {
		clusters := c.NumClusters()
		cluster := thread % clusters
		slot := thread / clusters
		return cluster*c.ClusterSize + slot
	}
	return thread
}

// ThreadForLane is the inverse of LaneForThread.
func (c Config) ThreadForLane(lane int) int {
	if c.Mapping == MapClusterRR {
		clusters := c.NumClusters()
		cluster := lane / c.ClusterSize
		slot := lane % c.ClusterSize
		return slot*clusters + cluster
	}
	return lane
}
