package arch

import (
	"reflect"
	"testing"
)

// TestSynthesizePolicy: the unACE-PC-list-to-policy bridge picks the
// cheapest sound spelling for each shape of dead-code distribution.
func TestSynthesizePolicy(t *testing.T) {
	cases := []struct {
		name   string
		kernel string
		n      int
		unACE  []int
		want   string
	}{
		{"no dead PCs", "K", 10, nil, "full"},
		{"out-of-range PCs ignored", "K", 10, []int{-1, 10, 99}, "full"},
		{"all dead, scoped", "K", 3, []int{0, 1, 2}, "kernel:!K"},
		{"all dead, unscoped", "", 3, []int{0, 1, 2}, "off"},
		{"hole in the middle", "vuln_micro", 18, []int{11, 12, 13, 14, 15}, "pcset:vuln_micro@0-10,16-17"},
		{"suffix dead, unscoped", "", 10, []int{7, 8, 9}, "pcset:0-6"},
		{"prefix dead, scoped", "K", 6, []int{0, 1}, "pcset:K@2-5"},
		{"duplicates collapse", "K", 4, []int{1, 1, 1}, "pcset:K@0-0,2-3"},
	}
	for _, c := range cases {
		p := SynthesizePolicy(c.kernel, c.n, c.unACE)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: synthesized invalid policy: %v", c.name, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("%s: SynthesizePolicy(%q, %d, %v) = %q, want %q",
				c.name, c.kernel, c.n, c.unACE, got, c.want)
		}
		if !reflect.DeepEqual(p, p.Normalized()) {
			t.Errorf("%s: synthesized policy %v is not in canonical form", c.name, p)
		}
	}
}

// TestSynthesizePolicyProtectsExactlyTheACEPCs: round-trip through the
// string spelling and check the protected set is the complement of the
// unACE list — the property the vulncheck experiment depends on.
func TestSynthesizePolicyProtectsExactlyTheACEPCs(t *testing.T) {
	const n = 25
	unACE := []int{0, 3, 4, 5, 11, 24}
	p, err := ParsePolicy(SynthesizePolicy("K", n, unACE).String())
	if err != nil {
		t.Fatalf("synthesized spelling does not re-parse: %v", err)
	}
	dead := map[int]bool{}
	for _, pc := range unACE {
		dead[pc] = true
	}
	inSet := func(pc int) bool {
		for _, r := range p.PCRanges {
			if pc >= r[0] && pc <= r[1] {
				return true
			}
		}
		return false
	}
	for pc := 0; pc < n; pc++ {
		if got, want := inSet(pc), !dead[pc]; got != want {
			t.Errorf("PC %d: protected = %v, want %v", pc, got, want)
		}
	}
}
