package arch

import (
	"reflect"
	"testing"
)

// TestParsePolicyRoundTrip: every canonical spelling parses, and
// String() reproduces it exactly.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, s := range []string{
		"full",
		"off",
		"kernel:BFS",
		"kernel:BFS,SHA",
		"kernel:!MatrixMul",
		"warpsample:1/2",
		"warpsample:1/4+2",
		"activemask:16",
		"pcset:3-5,9-12",
		"pcset:vuln_micro@0-10,16-17",
		"epoch:250/1000",
	} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("ParsePolicy(%q).String() = %q", s, got)
		}
	}
}

// TestParsePolicyAliases: alternative spellings normalize to the same
// policy as the canonical one — critical for content hashing, where two
// spellings of one policy must collide.
func TestParsePolicyAliases(t *testing.T) {
	cases := [][2]string{
		{"", "full"},
		{"none", "off"},
		{"perkernel:BFS", "kernel:BFS"},
		{"kernel:SHA,BFS,SHA", "kernel:BFS,SHA"}, // sorted, deduped
		{"warpsample:2", "warpsample:1/2"},
		{"sample:1/4", "warpsample:1/4"},
		{"warpsample:1/4+6", "warpsample:1/4+2"}, // phase wrapped mod N
		{"active:16", "activemask:16"},
		{"pcrange:0-128", "pcset:0-128"},
		{"pc:0-128", "pcset:0-128"},
		{"pcset:5-6,0-2,4-4", "pcset:0-2,4-6"},      // sorted, adjacent merged
		{"pcset:0-8,3-5,6-12", "pcset:0-12"},        // overlaps coalesced
		{"pcset: K @ 1-2 , 4-5", "pcset:K@1-2,4-5"}, // whitespace trimmed
		// Full protection whatever the kernel: one canonical form.
		{"warpsample:1/1", "full"},
		{"warpsample:1/1+3", "full"},
		{"activemask:1", "full"},
		{"epoch:1000/1000", "full"},
		{"epoch:1/1", "full"},
	}
	for _, c := range cases {
		a, err := ParsePolicy(c[0])
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c[0], err)
			continue
		}
		b, err := ParsePolicy(c[1])
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c[1], err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("ParsePolicy(%q) = %+v, want same as %q = %+v", c[0], a, c[1], b)
		}
	}
}

// TestParsePolicyRejects: malformed spellings fail loudly.
func TestParsePolicyRejects(t *testing.T) {
	for _, s := range []string{
		"quantum",
		"full:arg",
		"off:arg",
		"kernel:",
		"kernel:!",
		"warpsample:0",
		"warpsample:1/0",
		"warpsample:x",
		"activemask:0",
		"activemask:33",
		"activemask:lots",
		"pcrange:10-5",
		"pcrange:-4-2",
		"pcrange:abc",
		"pcset:",
		"pcset:K@",
		"pcset:10-5",
		"pcset:0-3,9-7",
		"pcset:abc",
		"epoch:0/0",
		"epoch:5/4",
		"epoch:-1/10",
		"epoch:250",
	} {
		if p, err := ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy(%q) accepted: %+v", s, p)
		}
	}
}

// TestPolicyNormalizedZeroesForeignFields: wire-level noise in fields
// the kind does not read cannot fork a canonical form.
func TestPolicyNormalizedZeroesForeignFields(t *testing.T) {
	noisy := Policy{Kind: PolicyActiveMask, MinActive: 8, SampleN: 3, EpochPeriod: 99, Kernels: []string{"x"}}
	want := Policy{Kind: PolicyActiveMask, MinActive: 8}
	if got := noisy.Normalized(); !reflect.DeepEqual(got, want) {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(Policy{}.Normalized(), Policy{}) {
		t.Error("zero policy must normalize to itself")
	}
}

// TestPolicyProtectsKernel: the launch-time half of the decision.
func TestPolicyProtectsKernel(t *testing.T) {
	include := Policy{Kind: PolicyPerKernel, Kernels: []string{"BFS", "SHA"}}
	exclude := Policy{Kind: PolicyPerKernel, Kernels: []string{"BFS"}, Exclude: true}
	cases := []struct {
		p    Policy
		name string
		want bool
	}{
		{Policy{}, "anything", true},
		{Policy{Kind: PolicyOff}, "anything", false},
		{include, "BFS", true},
		{include, "MatrixMul", false},
		{exclude, "BFS", false},
		{exclude, "MatrixMul", true},
		{Policy{Kind: PolicyWarpSample, SampleN: 4}, "anything", true},
		{Policy{Kind: PolicyEpoch, EpochOn: 1, EpochPeriod: 4}, "anything", true},
		{Policy{Kind: PolicyPCSet, PCRanges: [][2]int{{0, 4}}, PCKernel: "BFS"}, "SHA", true},
	}
	for _, c := range cases {
		if got := c.p.ProtectsKernel(c.name); got != c.want {
			t.Errorf("%v.ProtectsKernel(%q) = %v, want %v", c.p, c.name, got, c.want)
		}
	}
}

// TestConfigValidateChecksPolicy: a bad policy riding in a Config is
// rejected by the same gate every consumer already calls.
func TestConfigValidateChecksPolicy(t *testing.T) {
	cfg := WarpedDMRConfig()
	cfg.Policy = Policy{Kind: PolicyWarpSample} // SampleN 0
	if err := cfg.Validate(); err == nil {
		t.Error("Config.Validate accepted an invalid policy")
	}
	cfg.Policy = Policy{Kind: PolicyWarpSample, SampleN: 4}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Config.Validate rejected a valid policy: %v", err)
	}
}
