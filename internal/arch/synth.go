package arch

// SynthesizePolicy turns one kernel's statically-unACE PC list (from
// verify.AnalyzeVuln) into the cheapest policy spelling that still
// protects every ACE PC of that kernel — the bridge from static
// vulnerability analysis to the selective-protection engine.
//
// n is the kernel's instruction count; unACE lists the PCs whose faults
// the analysis proved architecturally masked. The result is always
// conservative for other kernels: a scoped pcset leaves them fully
// protected, so a policy synthesized from one kernel of a multi-kernel
// benchmark never weakens its neighbours.
//
//	no unACE PCs      -> full
//	every PC unACE    -> kernel:!KERNEL (skip just this kernel)
//	otherwise         -> pcset:KERNEL@...   (complement ranges)
func SynthesizePolicy(kernel string, n int, unACE []int) Policy {
	skip := make([]bool, n)
	skipped := 0
	for _, pc := range unACE {
		if pc >= 0 && pc < n && !skip[pc] {
			skip[pc] = true
			skipped++
		}
	}
	if skipped == 0 || n == 0 {
		return Policy{Kind: PolicyFull}
	}
	if skipped == n && kernel != "" {
		return Policy{Kind: PolicyPerKernel, Kernels: []string{kernel}, Exclude: true}.Normalized()
	}
	var protect [][2]int
	for pc := 0; pc < n; pc++ {
		if skip[pc] {
			continue
		}
		if len(protect) > 0 && protect[len(protect)-1][1] == pc-1 {
			protect[len(protect)-1][1] = pc
			continue
		}
		protect = append(protect, [2]int{pc, pc})
	}
	if len(protect) == 0 {
		// skipped == n with no kernel name to scope by: protect nothing.
		return Policy{Kind: PolicyOff}
	}
	p := Policy{Kind: PolicyPCSet, PCRanges: protect, PCKernel: kernel}
	return p.Normalized()
}
