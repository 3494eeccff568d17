package verify_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warped/internal/kernels"
	"warped/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenGeometries are the launch geometries the verifier golden pins
// every bundled source at: the declared one, seven 1-D blocks and three
// square 2-D blocks.
var goldenGeometries = []struct {
	name string
	opt  verify.Options
}{
	{"declared", verify.Options{}},
	{"32x1", verify.Options{BlockDimX: 32, BlockDimY: 1}},
	{"64x1", verify.Options{BlockDimX: 64, BlockDimY: 1}},
	{"128x1", verify.Options{BlockDimX: 128, BlockDimY: 1}},
	{"256x1", verify.Options{BlockDimX: 256, BlockDimY: 1}},
	{"512x1", verify.Options{BlockDimX: 512, BlockDimY: 1}},
	{"1024x1", verify.Options{BlockDimX: 1024, BlockDimY: 1}},
	{"8x8", verify.Options{BlockDimX: 8, BlockDimY: 8}},
	{"16x16", verify.Options{BlockDimX: 16, BlockDimY: 16}},
	{"32x32", verify.Options{BlockDimX: 32, BlockDimY: 32}},
}

// TestVerifierGolden pins the verifier's answers on every bundled
// source at every golden geometry: the CheckWith findings text and the
// SHA-256 of the AnalyzeVulnWith report's JSON (or its error text).
// A speed-up of the analyses must leave the file byte-identical.
// Regenerate with `go test ./internal/verify -run TestVerifierGolden
// -update` only when a rule's answer changes on purpose.
func TestVerifierGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range kernels.Sources() {
		p, err := s.Program()
		if err != nil {
			t.Fatalf("%s: %v", s.File, err)
		}
		for _, g := range goldenGeometries {
			fmt.Fprintf(&b, "== %s %s %s\n", s.File, s.Name, g.name)
			b.WriteString(verify.CheckWith(p, g.opt).Dump(s.File))
			rep, err := verify.AnalyzeVulnWith(p, g.opt)
			if err != nil {
				fmt.Fprintf(&b, "vuln error: %q\n", err.Error())
				continue
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "vuln sha256:%x\n", sha256.Sum256(js))
		}
	}
	path := filepath.Join("testdata", "verifier.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("verifier output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
