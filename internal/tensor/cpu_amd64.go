//go:build amd64 && !purego

package tensor

// Minimal vendored CPU-feature probe (the golang.org/x/sys/cpu subset the
// backends need), kept dependency-free. Detection runs during package
// variable initialisation — before init() selects a backend — via the
// registration var in backend_amd64.go.

// cpuid executes CPUID for (leaf, sub); implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE); implemented in cpuid_amd64.s.
func xgetbv() (eax, edx uint32)

type amd64Features struct {
	avx2 bool // AVX2 ISA + OS support for YMM state
}

// detectAMD64 probes the CPU and OS for the vector extension the
// assembly kernels need. Instruction support alone is not enough: the OS
// must have enabled the YMM register state in XCR0, or executing a VEX
// instruction faults.
func detectAMD64() amd64Features {
	var f amd64Features
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return f
	}
	xcr0, _ := xgetbv()
	const ymmState = 0x6 // XMM + YMM
	if xcr0&ymmState != ymmState {
		return f
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		const avx2Bit = 1 << 5
		f.avx2 = ebx7&avx2Bit != 0
	}
	return f
}
