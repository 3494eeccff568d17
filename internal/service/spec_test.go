package service

import (
	"strings"
	"testing"
)

func mustHash(t *testing.T, spec *JobSpec) string {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", spec, err)
	}
	return c.Hash()
}

// TestHashDefaultEquivalence: a spec that spells out a default must
// hash identically to one that omits it — otherwise the cache forks on
// wire-level noise and every "equivalent" client implementation gets
// its own cold cache.
func TestHashDefaultEquivalence(t *testing.T) {
	base := mustHash(t, &JobSpec{Benchmark: "MatrixMul"})

	ten, four, thirty := 10, 4, 30
	yes := true
	equivalents := []*JobSpec{
		{Benchmark: "MatrixMul", Config: &ConfigSpec{}},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{Preset: "warped"}},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{Preset: "WARPED"}},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{
			DMR: "full", Mapping: "rr",
			ReplayQ: &ten, Cluster: &four, SMs: &thirty,
			LaneShuffle: &yes, IdleDrain: &yes,
		}},
		{Benchmark: "MatrixMul", Policy: "full"},       // full is the default policy
		{Benchmark: "MatrixMul", Retry: 1},             // 0 and 1 both mean one attempt
		{Benchmark: "MatrixMul", Seed: 42},             // seed is inert without random faults
		{Benchmark: "MatrixMul", Faults: &FaultSpec{}}, // empty campaign == no campaign
		// Geometry belongs to the bundled workload: submitted values are
		// canonicalized away.
		{Benchmark: "MatrixMul", GridX: 8, BlockX: 128},
	}
	for i, spec := range equivalents {
		if got := mustHash(t, spec); got != base {
			t.Errorf("equivalent spec %d hashed %s, want %s", i, got, base)
		}
	}
}

// TestHashDistinguishes: anything that changes the simulation must
// change the hash.
func TestHashDistinguishes(t *testing.T) {
	base := mustHash(t, &JobSpec{Benchmark: "MatrixMul"})
	eight := 8
	distinct := []*JobSpec{
		{Benchmark: "BitonicSort"},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{Preset: "paper"}},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{DMR: "off"}},
		{Benchmark: "MatrixMul", Config: &ConfigSpec{SMs: &eight}},
		{Benchmark: "MatrixMul", Retry: 3},
		{Benchmark: "MatrixMul", StopOnError: true},
		{Benchmark: "MatrixMul", Faults: &FaultSpec{Random: 1}},
		{Benchmark: "MatrixMul", Policy: "off"},
		{Benchmark: "MatrixMul", Policy: "warpsample:1/2"},
	}
	seen := map[string]int{base: -1}
	for i, spec := range distinct {
		h := mustHash(t, spec)
		if prev, dup := seen[h]; dup {
			t.Errorf("spec %d collides with spec %d: %s", i, prev, h)
		}
		seen[h] = i
	}
}

// TestHashSeedResolution: the seed is resolved into concrete fault
// draws — distinct seeds with random faults hash differently, and the
// same seed is stable.
func TestHashSeedResolution(t *testing.T) {
	a := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Seed: 1, Faults: &FaultSpec{Random: 2}})
	b := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Seed: 2, Faults: &FaultSpec{Random: 2}})
	a2 := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Seed: 1, Faults: &FaultSpec{Random: 2}})
	if a == b {
		t.Error("distinct seeds with random faults hashed equal")
	}
	if a != a2 {
		t.Errorf("same seed hashed %s then %s", a, a2)
	}
}

// TestHashFaultNormalization: wire-level noise on fields the fault
// kind does not use must not fork the hash.
func TestHashFaultNormalization(t *testing.T) {
	clean := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Faults: &FaultSpec{
		Faults: []FaultDef{{Kind: "transient", SM: -1, Lane: 3, Unit: "sp", Bit: 7, Cycle: 100}},
	}})
	noisy := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Faults: &FaultSpec{
		Faults: []FaultDef{{Kind: "Transient", SM: -1, Lane: 3, Unit: "SP", Bit: 7, Cycle: 100, StuckVal: 1}},
	}})
	if clean != noisy {
		t.Errorf("normalized fault hashed %s, noisy %s", clean, noisy)
	}
}

// TestHashSourceGeometryDefaults: inline-source launch geometry
// defaults are materialized before hashing.
func TestHashSourceGeometryDefaults(t *testing.T) {
	const src = "exit\n"
	implicit := mustHash(t, &JobSpec{Source: src})
	explicit := mustHash(t, &JobSpec{Source: src, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1})
	if implicit != explicit {
		t.Errorf("defaulted geometry hashed %s, explicit %s", implicit, explicit)
	}
	bigger := mustHash(t, &JobSpec{Source: src, BlockX: 64})
	if bigger == implicit {
		t.Error("different geometry hashed equal for a source job")
	}
}

// TestCanonicalHashGolden pins one canonical hash. If this test fails
// you changed the job schema, a default, or the canonical encoding:
// bump specVersion so old cached results cannot be aliased, and repin.
func TestCanonicalHashGolden(t *testing.T) {
	const want = "461d070e61e1a9d8c9e528bb18f3587bd1c49be3e2aa5c054c733334220a9d30"
	if got := mustHash(t, &JobSpec{Benchmark: "MatrixMul"}); got != want {
		t.Errorf("canonical hash of {benchmark: MatrixMul} = %s, want %s", got, want)
	}
}

// TestHashPolicyNormalization: equivalent policy spellings hash
// identically (one cache entry per policy, not per spelling), while
// distinct policies fork the hash.
func TestHashPolicyNormalization(t *testing.T) {
	canonical := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Policy: "warpsample:1/2"})
	alias := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Policy: "warpsample:2"})
	if canonical != alias {
		t.Errorf("warpsample:1/2 hashed %s, alias warpsample:2 hashed %s", canonical, alias)
	}
	other := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Policy: "warpsample:1/4"})
	if other == canonical {
		t.Error("warpsample:1/4 collides with warpsample:1/2")
	}
	// Every spelling of full protection that does not depend on the
	// kernel is one job: the policy-free one TestCanonicalHashGolden pins.
	none := mustHash(t, &JobSpec{Benchmark: "MatrixMul"})
	for _, full := range []string{"full", "warpsample:1/1", "activemask:1", "epoch:1000/1000"} {
		if got := mustHash(t, &JobSpec{Benchmark: "MatrixMul", Policy: full}); got != none {
			t.Errorf("policy %s hashed %s, want the policy-free hash %s", full, got, none)
		}
	}
}

// TestCanonicalizeRejects: malformed specs fail loudly at admission.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]*JobSpec{
		"empty":             {},
		"both workloads":    {Benchmark: "MatrixMul", Source: "exit\n"},
		"unknown benchmark": {Benchmark: "NotABenchmark"},
		"unknown preset":    {Benchmark: "MatrixMul", Config: &ConfigSpec{Preset: "quantum"}},
		"unknown dmr":       {Benchmark: "MatrixMul", Config: &ConfigSpec{DMR: "sideways"}},
		"bad fault kind":    {Benchmark: "MatrixMul", Faults: &FaultSpec{Faults: []FaultDef{{Kind: "warp-core-breach", Lane: 0, Unit: "sp"}}}},
		"bad fault lane":    {Benchmark: "MatrixMul", Faults: &FaultSpec{Faults: []FaultDef{{Kind: "stuck-at", Lane: 99, Unit: "sp"}}}},
		"bad fault unit":    {Benchmark: "MatrixMul", Faults: &FaultSpec{Faults: []FaultDef{{Kind: "stuck-at", Lane: 0, Unit: "tensor"}}}},
		"negative random":   {Benchmark: "MatrixMul", Faults: &FaultSpec{Random: -1}},
		"random 65":         {Benchmark: "MatrixMul", Faults: &FaultSpec{Random: 65}},
		"random 2000000":    {Benchmark: "SHA", Faults: &FaultSpec{Random: 2_000_000, Kind: "transient"}, Seed: 7},
		"explicit + random": {Benchmark: "MatrixMul", Faults: &FaultSpec{Faults: []FaultDef{{Kind: "stuck-at", Lane: 0, Unit: "sp"}}, Random: 64}},
		"negative shared":   {Source: "exit\n", SharedBytes: -4},
		"bad policy":        {Benchmark: "MatrixMul", Policy: "quantum"},
		"bad policy arg":    {Benchmark: "MatrixMul", Policy: "warpsample:1/0"},
	}
	for name, spec := range bad {
		if _, err := spec.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", name, spec)
		}
	}
	// At the fault limit, explicit and random together, a job is admitted.
	for _, fs := range []*FaultSpec{
		{Random: maxFaults},
		{Faults: []FaultDef{{Kind: "stuck-at", Lane: 0, Unit: "sp"}}, Random: maxFaults - 1},
	} {
		if _, err := (&JobSpec{Benchmark: "MatrixMul", Faults: fs}).Canonicalize(); err != nil {
			t.Errorf("%d explicit + %d random faults: %v", len(fs.Faults), fs.Random, err)
		}
	}
}

// TestParseSpecStrict: unknown fields are rejected so a typo cannot
// silently hash to a different (default-filled) job.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"benchmark":"MatrixMul","retries":3}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field")
	}
	if _, err := ParseSpec([]byte(`{"benchmark":"MatrixMul"} trailing`)); err == nil {
		t.Error("ParseSpec accepted trailing data")
	}
	spec, err := ParseSpec([]byte(`{"benchmark":"MatrixMul","seed":7}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Benchmark != "MatrixMul" || spec.Seed != 7 {
		t.Errorf("ParseSpec decoded %+v", spec)
	}
}

// TestIDFromHash: IDs are a stable prefix of the content hash.
func TestIDFromHash(t *testing.T) {
	h := mustHash(t, &JobSpec{Benchmark: "MatrixMul"})
	id := IDFromHash(h)
	if !strings.HasPrefix(id, "j") || len(id) != 17 {
		t.Errorf("IDFromHash(%s) = %s, want j + 16 hex chars", h, id)
	}
	if !strings.HasPrefix(h, id[1:]) {
		t.Errorf("ID %s is not a prefix of hash %s", id, h)
	}
}
