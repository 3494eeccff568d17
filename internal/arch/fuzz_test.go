package arch

import (
	"reflect"
	"testing"
)

// FuzzParsePolicy: ParsePolicy must never panic, and every accepted
// spelling must reach a fixpoint — re-parsing String() of the parsed
// policy yields the identical normalized policy. The fixpoint is what
// the warpd job hash relies on: a policy that survived one round trip
// can never drift on the next.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{
		"full", "off", "kernel:BFS,SHA", "kernel:!MatrixMul",
		"warpsample:1/4+2", "activemask:16", "pcrange:0-128",
		"pcset:3-5,9-12", "pcset:vuln_micro@0-10,16-17",
		"pcset:5-6,0-2,4-4", "pc:-1-2", "kernel:", "quantum", "",
		"epoch:250/1000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if !reflect.DeepEqual(p, p.Normalized()) {
			t.Fatalf("ParsePolicy(%q) = %+v is not normalized", s, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePolicy(%q) accepted an invalid policy: %v", s, err)
		}
		again, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q).String() = %q does not re-parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip of %q drifted: %+v -> %q -> %+v", s, p, p.String(), again)
		}
	})
}
