// Package core implements Warped-DMR, the paper's contribution: the
// Register Forwarding Unit pairing logic for intra-warp (spatial) DMR,
// the Replay Checker and ReplayQ for inter-warp (temporal) DMR, lane
// shuffling, thread-to-core mapping, and the coverage/overhead
// bookkeeping behind Figures 9a and 9b.
package core

import (
	"warped/internal/simt"
)

// PriorityTable gives, for each MUX (idle lane slot) in a SIMT cluster,
// the order in which it scans lanes for an active thread to verify.
// For cluster size 4 this reproduces paper Table 1 exactly:
//
//	Priority  MUX0 MUX1 MUX2 MUX3
//	1st        0    1    2    3
//	2nd        1    0    3    2
//	3rd        2    3    0    1
//	4th        3    2    1    0
//
// The pattern is lane = mux XOR priority, which generalizes to any
// power-of-two cluster size (we use it for the 8-lane variant of
// Fig. 9a) and gives each MUX a distinct scan order so pairings spread
// uniformly across lanes. The scans compute it in place; nothing is
// stored but the cluster size.
type PriorityTable struct {
	size int
}

// NewPriorityTable builds the table for a power-of-two cluster size.
func NewPriorityTable(clusterSize int) *PriorityTable {
	if clusterSize <= 0 || clusterSize&(clusterSize-1) != 0 {
		panic("core: cluster size must be a positive power of two")
	}
	return &PriorityTable{size: clusterSize}
}

// Size returns the cluster size the table was built for.
func (t *PriorityTable) Size() int { return t.size }

// Order returns the scan order for one MUX: its column of the table.
func (t *PriorityTable) Order(mux int) []int {
	order := make([]int, t.size)
	for prio := range order {
		order[prio] = mux ^ prio
	}
	return order
}

// Pairing is one intra-warp DMR assignment within a cluster, in
// cluster-relative lane numbers.
type Pairing struct {
	Idle   int // lane performing the redundant execution
	Active int // lane whose computation is verified
}

// PairCluster pairs each idle lane in a cluster with an active lane
// according to the MUX priority table. busy is the cluster-relative
// mask of lanes executing the instruction (bit i = lane i busy).
// Every idle MUX picks the first busy lane in its scan order; several
// idle lanes may pick the same active lane (the paper allows more than
// dual redundancy rather than adding suppression logic).
func (t *PriorityTable) PairCluster(busy uint32) []Pairing {
	pairs, _ := t.PairWarpInto(simt.Mask(busy), t.size, nil)
	return pairs
}

// PairWarp applies PairCluster to every cluster of a physical lane
// mask and returns warp-relative pairings plus the number of distinct
// active lanes that received at least one verifier.
func (t *PriorityTable) PairWarp(busy simt.Mask, warpWidth int) (pairs []Pairing, covered int) {
	return t.PairWarpInto(busy, warpWidth, nil)
}

// PairWarpInto is PairWarp with caller-provided storage: pairings are
// appended to buf (pass buf[:0] of a per-engine scratch array to keep
// the per-instruction DMR path allocation-free).
func (t *PriorityTable) PairWarpInto(busy simt.Mask, warpWidth int, buf []Pairing) (pairs []Pairing, covered int) {
	clusterMask := uint32(1)<<uint(t.size) - 1
	var coveredMask simt.Mask
	pairs = buf
	for base := 0; base < warpWidth; base += t.size {
		cb := (uint32(busy) >> uint(base)) & clusterMask
		if cb == 0 {
			continue
		}
		for mux := 0; mux < t.size; mux++ {
			if cb&(1<<uint(mux)) != 0 {
				continue // MUX's first priority is its own lane: it is busy
			}
			for prio := 0; prio < t.size; prio++ {
				if lane := mux ^ prio; cb&(1<<uint(lane)) != 0 {
					pairs = append(pairs, Pairing{Idle: base + mux, Active: base + lane})
					coveredMask |= 1 << uint(base+lane)
					break
				}
			}
		}
	}
	return pairs, coveredMask.Count()
}

// ShuffleLane returns the physical lane that redundantly executes the
// work of `lane` during an inter-warp (temporal) replay. Shuffling is
// confined to the lane's SIMT cluster to bound wiring (paper §3.2);
// phase varies the rotation so repeated replays exercise different
// pairings. For clusterSize 1 shuffling is impossible and the original
// lane is returned.
func ShuffleLane(lane, clusterSize, phase int) int {
	if clusterSize <= 1 {
		return lane
	}
	base := lane - lane%clusterSize
	rot := 1 + phase%(clusterSize-1) // never 0 mod clusterSize
	return base + (lane-base+rot)%clusterSize
}
