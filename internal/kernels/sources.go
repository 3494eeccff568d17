package kernels

import (
	"fmt"
	"sort"
	"sync"

	"warped/internal/asm"
	"warped/internal/isa"
	"warped/internal/verify"
)

// Source is one bundled kernel: its assembly text, declared once next
// to the workload that launches it, plus the Go file that declares it,
// so lint diagnostics can point at the defining file. The text is
// assembled on first use, at most once per process; every launch
// shares the program and only reads it (a launch fills in only the
// kernel's Params, never the program).
type Source struct {
	Name string // kernel entry name (.kernel); "?" when Src does not assemble
	File string // repo-relative Go file declaring the source
	Src  string // assembly text

	once sync.Once
	prog *isa.Program
	err  error
}

// Program returns the assembled source, assembling it on the first
// call. Callers share the program and must not modify it.
func (s *Source) Program() (*isa.Program, error) {
	s.once.Do(func() {
		s.Name = "?"
		if s.prog, s.err = asm.Assemble(s.Src); s.err == nil {
			s.Name = s.prog.Name
		}
	})
	return s.prog, s.err
}

// Sources returns every bundled kernel source, assembled, sorted by
// file then name. The sources are the workload table's own: callers
// only read them.
func Sources() []*Source {
	var out []*Source
	for _, b := range suite {
		for _, s := range b.kernels {
			_, _ = s.Program() // a failed source is listed, named "?"
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LintAll verifies every bundled kernel. It returns nil only when all
// sources assemble and produce zero verifier findings; otherwise the
// error lists every diagnostic in the greppable file:line: severity:
// rule: message format.
func LintAll() error {
	var report string
	for _, s := range Sources() {
		p, err := s.Program()
		if err != nil {
			report += fmt.Sprintf("%s: %v\n", s.File, err)
			continue
		}
		if fs := verify.Check(p); len(fs) > 0 {
			report += fs.Dump(s.File)
		}
	}
	if report != "" {
		return fmt.Errorf("kernels: lint failed:\n%s", report)
	}
	return nil
}
