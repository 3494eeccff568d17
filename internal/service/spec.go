// Package service is the simulation-as-a-service layer behind the
// warpd daemon: a job model (spec, canonicalization, content hash), a
// content-addressed result cache with in-flight coalescing, admission
// onto an Executor (a worker's bounded runner pool, or a coordinator's
// ring in internal/cluster), and the HTTP/JSON API that exposes it all.
//
// Identical work is the common case for the sweeps this service
// exists for — thousands of (kernel, config, seed) points, most of
// them resubmitted across campaigns — so identity is computed, not
// assigned: a job's ID is the SHA-256 of its canonical form. Two
// submissions that mean the same simulation collapse onto one
// execution (coalescing) and later resubmissions are answered from
// the LRU-bounded result cache. docs/SERVICE.md is the API and
// semantics reference.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"warped/internal/arch"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/store"
)

// JobSpec is the wire form of one simulation job, as POSTed to
// /v1/jobs. Exactly one of Benchmark and Source selects the workload:
// a bundled Table 4 (or extra) benchmark by name, or inline PTX-like
// assembly assembled per job. Everything else is optional and
// defaulted; defaults are resolved away before hashing, so a spec that
// spells out a default hashes identically to one that omits it.
type JobSpec struct {
	// Benchmark names a bundled workload (see GET /v1/benchmarks or
	// warped.BenchmarkNames). Mutually exclusive with Source.
	Benchmark string `json:"benchmark,omitempty"`

	// Source is inline kernel assembly (internal/asm syntax). The
	// kernel is statically verified before launch; assembly and
	// verification errors carry the job's content address as the
	// source name ("job:<id>").
	Source string `json:"source,omitempty"`

	// Launch geometry for Source jobs (ignored for benchmarks, which
	// carry their own). Defaults: 1x1 grid, 32x1 blocks.
	GridX  int `json:"grid_x,omitempty"`
	GridY  int `json:"grid_y,omitempty"`
	BlockX int `json:"block_x,omitempty"`
	BlockY int `json:"block_y,omitempty"`

	// SharedBytes is per-block shared memory for Source jobs; the
	// kernel's .shared directive raises it if larger.
	SharedBytes int `json:"shared_bytes,omitempty"`

	// Params are the 32-bit kernel parameter words for Source jobs.
	Params []uint32 `json:"params,omitempty"`

	// Config selects and overrides the machine configuration. Nil means
	// the paper's recommended Warped-DMR machine.
	Config *ConfigSpec `json:"config,omitempty"`

	// Policy is the selective-protection policy in warped.ParsePolicy
	// spelling ("full", "off", "kernel:BFS", "warpsample:1/4",
	// "activemask:16", "pcset:0-128", "epoch:250/1000"); empty means
	// full protection. The parsed policy lands in the canonical config,
	// so two jobs that differ only in policy are distinct cache entries
	// (docs/POLICIES.md, docs/SERVICE.md).
	Policy string `json:"policy,omitempty"`

	// Faults is the fault-injection campaign; nil runs fault-free.
	Faults *FaultSpec `json:"faults,omitempty"`

	// Seed drives the random fault draws in Faults.Random. It is
	// resolved into concrete faults during canonicalization, so two
	// seeds that draw different faults hash differently while a seed on
	// a job with no random faults does not perturb the hash.
	Seed int64 `json:"seed,omitempty"`

	// Retry re-executes the whole workload up to this many attempts
	// when a DMR comparator flags a mismatch (warped.WithRetry
	// semantics). 0 and 1 both mean a single attempt.
	Retry int `json:"retry,omitempty"`

	// StopOnError aborts an attempt at the first detected mismatch
	// (warped.WithStopOnError semantics).
	StopOnError bool `json:"stop_on_error,omitempty"`
}

// ConfigSpec is a named preset plus overrides, mirroring the warpsim
// flags. Pointer fields distinguish "unset" from an explicit zero.
type ConfigSpec struct {
	// Preset is "warped" (default: the paper's recommended full-DMR
	// machine) or "paper" (the DMR-off baseline of Table 3).
	Preset string `json:"preset,omitempty"`

	DMR         string `json:"dmr,omitempty"`     // off|intra|inter|full|dmtr
	Mapping     string `json:"mapping,omitempty"` // linear|rr
	ReplayQ     *int   `json:"replayq,omitempty"`
	Cluster     *int   `json:"cluster,omitempty"`
	SMs         *int   `json:"sms,omitempty"`
	LaneShuffle *bool  `json:"lane_shuffle,omitempty"`
	IdleDrain   *bool  `json:"idle_drain,omitempty"`
}

// maxFaults bounds the faults one job may inject, explicit and random
// together. Canonicalize draws every random fault and the injector
// checks every fault on each perturbed lane, so an unbounded count
// would let one small request tie up the coordinator at submit.
const maxFaults = 64

// FaultSpec is a fault-injection campaign: explicit faults, random
// draws, or both (explicit faults injected first), at most maxFaults
// in all.
type FaultSpec struct {
	// Faults are injected exactly as given.
	Faults []FaultDef `json:"faults,omitempty"`

	// Random draws this many additional faults from the job seed.
	Random int `json:"random,omitempty"`

	// Kind selects the random draw model: "stuck-at" (default) or
	// "transient".
	Kind string `json:"kind,omitempty"`

	// MaxCycle bounds random transient fire cycles (default 100000).
	MaxCycle int64 `json:"max_cycle,omitempty"`
}

// FaultDef is one injectable hardware defect in wire form.
type FaultDef struct {
	Kind     string `json:"kind"`                // stuck-at|transient
	SM       int    `json:"sm"`                  // -1 matches any SM
	Lane     int    `json:"lane"`                // physical SIMT lane 0..31
	Unit     string `json:"unit"`                // sp|sfu|ldst
	Bit      uint   `json:"bit"`                 // affected output bit 0..31
	StuckVal uint   `json:"stuck_val,omitempty"` // stuck-at only: 0 or 1
	Cycle    int64  `json:"cycle,omitempty"`     // transient only: earliest fire cycle
}

// specVersion is baked into the canonical form so that any future
// change to job semantics (new field, different default) changes every
// hash instead of silently aliasing old cached results. v2 added the
// selective-protection policy to the canonical config; v3 added the
// pcset policy kind (multi-range, kernel-scoped) to the policy shape;
// v4 moved sampling DMR from two config fields into the epoch policy
// kind, folded pcrange into pcset, and dropped four config fields the
// simulator never read.
const specVersion = 4

// canonicalJob is the fully-resolved form a job is hashed and executed
// from: presets applied, defaults materialized, random faults drawn,
// irrelevant fields zeroed. Field order is part of the hash contract —
// TestCanonicalHashGolden pins it.
type canonicalJob struct {
	V           int         `json:"v"`
	Benchmark   string      `json:"benchmark,omitempty"`
	Source      string      `json:"source,omitempty"`
	GridX       int         `json:"grid_x,omitempty"`
	GridY       int         `json:"grid_y,omitempty"`
	BlockX      int         `json:"block_x,omitempty"`
	BlockY      int         `json:"block_y,omitempty"`
	SharedBytes int         `json:"shared_bytes,omitempty"`
	Params      []uint32    `json:"params,omitempty"`
	Config      arch.Config `json:"config"`
	Faults      []FaultDef  `json:"faults,omitempty"`
	Attempts    int         `json:"attempts"`
	StopOnError bool        `json:"stop_on_error,omitempty"`
}

// Canonicalize validates s and resolves it into its canonical form:
// the workload checked against the registry, the config preset and
// overrides flattened into a full arch.Config, launch geometry
// defaulted (Source jobs) or zeroed (benchmark jobs), random faults
// drawn from the seed into explicit FaultDefs, and the retry budget
// normalized. Semantically identical specs canonicalize identically.
func (s *JobSpec) Canonicalize() (*canonicalJob, error) {
	c := &canonicalJob{V: specVersion}

	switch {
	case s.Benchmark != "" && s.Source != "":
		return nil, fmt.Errorf("service: job sets both benchmark and source; pick one")
	case s.Benchmark == "" && s.Source == "":
		return nil, fmt.Errorf("service: job needs a benchmark name or inline source")
	case s.Benchmark != "":
		if _, err := kernels.Lookup(s.Benchmark); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		c.Benchmark = s.Benchmark
		// Geometry/params belong to the bundled workload: zero the
		// submitted values so they cannot fork the content address.
	default:
		c.Source = s.Source
		c.GridX, c.GridY, c.BlockX, c.BlockY = s.GridX, s.GridY, s.BlockX, s.BlockY
		if c.GridX == 0 {
			c.GridX = 1
		}
		if c.GridY == 0 {
			c.GridY = 1
		}
		if c.BlockX == 0 {
			c.BlockX = 32
		}
		if c.BlockY == 0 {
			c.BlockY = 1
		}
		if c.GridX < 0 || c.GridY < 0 || c.BlockX < 0 || c.BlockY < 0 {
			return nil, fmt.Errorf("service: launch geometry must be positive")
		}
		c.SharedBytes = s.SharedBytes
		if c.SharedBytes < 0 {
			return nil, fmt.Errorf("service: shared_bytes must be non-negative")
		}
		if len(s.Params) > 0 {
			c.Params = append([]uint32(nil), s.Params...)
		}
	}

	cfg, err := s.Config.resolve()
	if err != nil {
		return nil, err
	}
	if s.Policy != "" {
		// ParsePolicy normalizes, so equivalent spellings ("warpsample:2"
		// vs "warpsample:1/2") canonicalize — and hash — identically.
		pol, err := arch.ParsePolicy(s.Policy)
		if err != nil {
			return nil, fmt.Errorf("service: policy: %w", err)
		}
		cfg.Policy = pol
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("service: config: %w", err)
	}
	c.Config = cfg

	faults, err := s.Faults.resolve(s.Seed, cfg.NumSMs)
	if err != nil {
		return nil, err
	}
	c.Faults = faults

	c.Attempts = s.Retry
	if c.Attempts < 1 {
		c.Attempts = 1
	}
	c.StopOnError = s.StopOnError
	return c, nil
}

// Hash returns the job's content address: the hex SHA-256 of the
// canonical JSON encoding. Byte-stable across processes; pinned by
// TestCanonicalHashGolden against accidental schema drift.
func (c *canonicalJob) Hash() string {
	data, err := json.Marshal(c)
	if err != nil {
		// canonicalJob is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("service: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IDFromHash shortens a content hash into the wire job ID: "j" and the
// hash's short address in the durable store.
func IDFromHash(hash string) string {
	if len(hash) > store.ShortKeyLen {
		hash = hash[:store.ShortKeyLen]
	}
	return "j" + hash
}

// SpecKey canonicalizes spec and returns its full content hash (the
// coalescing / durable-store key) and the wire job ID derived from it.
// It is the exported form of the identity computation Submit performs,
// for callers that address a job without submitting it, such as a
// test placing a job on the cluster's hash ring.
func SpecKey(spec *JobSpec) (hash, id string, err error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return "", "", err
	}
	hash = canon.Hash()
	return hash, IDFromHash(hash), nil
}

// resolve flattens the preset + overrides into a full machine config.
func (cs *ConfigSpec) resolve() (arch.Config, error) {
	preset := ""
	if cs != nil {
		preset = cs.Preset
	}
	var cfg arch.Config
	switch strings.ToLower(preset) {
	case "", "warped":
		cfg = arch.WarpedDMRConfig()
	case "paper":
		cfg = arch.PaperConfig()
	default:
		return cfg, fmt.Errorf("service: unknown config preset %q (want warped or paper)", preset)
	}
	if cs == nil {
		return cfg, nil
	}
	if cs.DMR != "" {
		mode, err := arch.ParseDMR(cs.DMR)
		if err != nil {
			return cfg, fmt.Errorf("service: %w", err)
		}
		cfg.DMR = mode
	}
	if cs.Mapping != "" {
		m, err := arch.ParseMapping(cs.Mapping)
		if err != nil {
			return cfg, fmt.Errorf("service: %w", err)
		}
		cfg.Mapping = m
	}
	if cs.ReplayQ != nil {
		cfg.ReplayQSize = *cs.ReplayQ
	}
	if cs.Cluster != nil {
		cfg.ClusterSize = *cs.Cluster
	}
	if cs.SMs != nil {
		cfg.NumSMs = *cs.SMs
	}
	if cs.LaneShuffle != nil {
		cfg.LaneShuffle = *cs.LaneShuffle
	}
	if cs.IdleDrain != nil {
		cfg.IdleDrain = *cs.IdleDrain
	}
	return cfg, nil
}

func parseUnit(s string) (isa.UnitClass, error) {
	switch strings.ToLower(s) {
	case "sp":
		return isa.UnitSP, nil
	case "sfu":
		return isa.UnitSFU, nil
	case "ldst", "ld/st":
		return isa.UnitLDST, nil
	}
	return 0, fmt.Errorf("service: unknown fault unit %q (want sp, sfu or ldst)", s)
}

// resolve validates the campaign and expands random draws into
// explicit, canonical fault definitions.
func (fs *FaultSpec) resolve(seed int64, numSMs int) ([]FaultDef, error) {
	if fs == nil {
		return nil, nil
	}
	if fs.Random < 0 {
		return nil, fmt.Errorf("service: faults.random must be non-negative, got %d", fs.Random)
	}
	if fs.Random > maxFaults-len(fs.Faults) {
		return nil, fmt.Errorf("service: %d explicit + %d random faults exceed the limit of %d per job",
			len(fs.Faults), fs.Random, maxFaults)
	}
	out := make([]FaultDef, 0, len(fs.Faults)+fs.Random)
	for i, fd := range fs.Faults {
		if _, err := fd.toFault(); err != nil {
			return nil, fmt.Errorf("service: faults[%d]: %w", i, err)
		}
		fd.normalize()
		out = append(out, fd)
	}
	if fs.Random > 0 {
		kind := strings.ToLower(fs.Kind)
		if kind == "" {
			kind = "stuck-at"
		}
		maxCycle := fs.MaxCycle
		if maxCycle <= 0 {
			maxCycle = 100_000
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < fs.Random; i++ {
			var f *fault.Fault
			switch kind {
			case "stuck-at":
				f = fault.RandomStuckAt(rng, numSMs)
			case "transient":
				f = fault.RandomTransient(rng, numSMs, maxCycle)
			default:
				return nil, fmt.Errorf("service: unknown random fault kind %q (want stuck-at or transient)", fs.Kind)
			}
			out = append(out, fromFault(f))
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// normalize zeroes the fields the fault kind does not use so that
// wire-level noise (a stuck_val on a transient) cannot fork the hash.
func (fd *FaultDef) normalize() {
	fd.Kind = strings.ToLower(fd.Kind)
	fd.Unit = strings.ToLower(fd.Unit)
	switch fd.Kind {
	case "stuck-at":
		fd.Cycle = 0
	case "transient":
		fd.StuckVal = 0
	}
}

// toFault converts the wire form into an injectable fault.
func (fd FaultDef) toFault() (*fault.Fault, error) {
	unit, err := parseUnit(fd.Unit)
	if err != nil {
		return nil, err
	}
	if fd.Lane < 0 || fd.Lane > 31 {
		return nil, fmt.Errorf("service: fault lane %d out of 0..31", fd.Lane)
	}
	if fd.Bit > 31 {
		return nil, fmt.Errorf("service: fault bit %d out of 0..31", fd.Bit)
	}
	if fd.SM < -1 {
		return nil, fmt.Errorf("service: fault sm %d invalid (-1 matches any)", fd.SM)
	}
	f := &fault.Fault{SM: fd.SM, Lane: fd.Lane, Unit: unit, Bit: fd.Bit}
	switch strings.ToLower(fd.Kind) {
	case "stuck-at":
		if fd.StuckVal > 1 {
			return nil, fmt.Errorf("service: stuck_val %d must be 0 or 1", fd.StuckVal)
		}
		f.Kind, f.StuckVal = fault.StuckAt, fd.StuckVal
	case "transient":
		if fd.Cycle < 0 {
			return nil, fmt.Errorf("service: transient cycle %d must be non-negative", fd.Cycle)
		}
		f.Kind, f.Cycle = fault.Transient, fd.Cycle
	default:
		return nil, fmt.Errorf("service: unknown fault kind %q (want stuck-at or transient)", fd.Kind)
	}
	return f, nil
}

// fromFault converts a drawn fault back into canonical wire form.
func fromFault(f *fault.Fault) FaultDef {
	fd := FaultDef{
		SM:   f.SM,
		Lane: f.Lane,
		Unit: strings.ToLower(f.Unit.String()),
		Bit:  f.Bit,
	}
	switch f.Kind {
	case fault.StuckAt:
		fd.Kind, fd.StuckVal = "stuck-at", f.StuckVal
	case fault.Transient:
		fd.Kind, fd.Cycle = "transient", f.Cycle
	default:
		// fault.Kind has exactly two values; a third is a programming
		// error in internal/fault.
		panic(fmt.Sprintf("service: unknown fault.Kind %d", int(f.Kind)))
	}
	return fd
}

// injector builds the fault injector a job's attempts share (nil for a
// fault-free job).
func injector(defs []FaultDef) (*fault.Injector, error) {
	if len(defs) == 0 {
		return nil, nil
	}
	faults := make([]*fault.Fault, len(defs))
	for i, fd := range defs {
		f, err := fd.toFault()
		if err != nil {
			return nil, err
		}
		faults[i] = f
	}
	return fault.NewInjector(faults...), nil
}

// ParseSpec strictly decodes a JobSpec from JSON: unknown fields are
// rejected so typos fail loudly instead of silently hashing to a
// different (default-filled) job. Used by the HTTP handler and by
// tools/docscheck to keep the documented examples honest.
func ParseSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("service: bad job spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("service: bad job spec: trailing data after JSON object")
	}
	return &spec, nil
}
