//go:build arm64 && !purego

package tensor

// NEON kernel entry points (backend_arm64.s); //go:noescape keeps the
// row slices they receive on the caller's stack.

//go:noescape
func axpyNEON(dst, src *float64, n int, a float64)

//go:noescape
func addNEON(dst, src *float64, n int)

//go:noescape
func scaleNEON(x *float64, n int, s float64)

// Advanced SIMD is mandatory in the arm64 base architecture, so unlike
// amd64 there is nothing to probe: the backend registers unconditionally.
var _ = registerARM64Backends()

func registerARM64Backends() struct{} {
	cpuFeatureNames = append(cpuFeatureNames, "asimd")
	registerBackend(neonBackend{})
	return struct{}{}
}

// neonBackend vectorises the streaming kernels (axpy, add, scale) with
// 2-lane NEON float64 ops — separate FMUL + FADD, so each element rounds
// exactly like the scalar reference. AxpyRow also feeds the CSR
// MulDense/MulDenseT row kernels through the package dispatcher. The
// GEMM drivers are inherited from the tuned backend (compaction +
// gemmRowGo/ntRowGo), whose ILP restructuring is ISA-independent.
type neonBackend struct{ tunedBackend }

func (neonBackend) Name() string { return "neon" }

func (neonBackend) AxpyRow(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	axpyNEON(&dst[0], &src[0], n, a)
}

func (neonBackend) Add(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	addNEON(&dst[0], &src[0], n)
}

func (neonBackend) Scale(x []float64, s float64) {
	if len(x) == 0 {
		return
	}
	scaleNEON(&x[0], len(x), s)
}
