package asm_test

import (
	"testing"

	"warped/internal/asm"
	"warped/internal/kernels"
	"warped/internal/verify"
)

// FuzzAssemble feeds arbitrary text to the assembler and the verifier,
// the path warpd runs on kernels that arrive over the network, seeded
// with every bundled kernel. Whatever assembles must pass through the
// static verifier and the vulnerability analysis without panicking,
// and its disassembly must be canonical: reassembling it and
// disassembling again yields byte-identical text.
func FuzzAssemble(f *testing.F) {
	for _, s := range kernels.Sources() {
		f.Add(s.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		verify.Check(p)
		_, _ = verify.AnalyzeVuln(p) // a kernel that fails verification is an error, not a panic
		d1 := p.Disassemble()
		p2, err := asm.Assemble(d1)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, d1)
		}
		if d2 := p2.Disassemble(); d2 != d1 {
			t.Fatalf("disassembly is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", d1, d2)
		}
	})
}
