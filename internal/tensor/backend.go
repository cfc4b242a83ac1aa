package tensor

import (
	"fmt"
	"os"
)

// This file defines the pluggable compute backend: the set of hot kernels
// every dense and sparse operation in the package funnels through. The
// tape, the scheduled executor, and the tape-free forward paths all call
// the same dispatch points (matMulInto, axpyRow, the V* vector-math
// helpers), so swapping the backend swaps the inner loops of training and
// generation wholesale while the recording / scheduling machinery above
// them is untouched — AssertSchedEquiv and the scheduler fuzzer exercise
// whichever backend is active for free.
//
// Bit-stability contract: every backend must produce bit-identical
// results to the pure-Go reference for all finite inputs. The kernels are
// written so this is achievable with SIMD:
//
//   - Elementwise kernels (axpy, add, scale, activations) round each
//     element independently; vectorising across elements cannot change
//     any element's result as long as no FMA contraction is introduced,
//     so SIMD variants use separate multiply and add instructions.
//   - GEMM kernels fix one accumulation order per output element —
//     ascending p (the contraction index), with GemmNN/GemmTN adding each
//     product directly into the output element and GemmNT/GemmTT summing
//     into a fresh scalar that is added to the output once at the end.
//     SIMD variants vectorise across output elements (rows/columns), never
//     across the contraction, so each element sees the exact scalar
//     sequence of roundings.
//   - GemmTN skips zero multipliers (a[p][i] == 0 contributes nothing and
//     one-hot feature matrices are common on that path); the skip is part
//     of the kernel contract and every backend applies it identically.
//
// No backend may use FMA: the differential suite holds every compiled
// backend to the reference bit for bit. See docs/ARCHITECTURE.md
// "Compute backends".

// Backend implements the hot compute kernels. Implementations must be
// stateless and safe for concurrent use: the parallel GEMM/SpMM paths
// invoke kernels from multiple goroutines on disjoint output rows.
type Backend interface {
	// Name identifies the backend ("purego", "tuned", "avx2", "neon", …).
	Name() string

	// GemmNN accumulates out += a·b (a: m×k, b: k×n, out: m×n).
	GemmNN(out, a, b *Matrix)
	// GemmTN accumulates out += aᵀ·b (a: k×m, b: k×n, out: m×n).
	GemmTN(out, a, b *Matrix)
	// GemmNT accumulates out += a·bᵀ (a: m×k, b: n×k, out: m×n).
	GemmNT(out, a, b *Matrix)
	// GemmTT accumulates out += aᵀ·bᵀ (a: k×m, b: n×k, out: m×n).
	GemmTT(out, a, b *Matrix)

	// AxpyRow computes dst[i] += alpha*src[i] over len(src) elements.
	// The dense GEMM row kernels and the CSR MulDense/MulDenseT row
	// kernels are built on it.
	AxpyRow(dst, src []float64, alpha float64)
	// Add computes dst[i] += src[i] over len(src) elements.
	Add(dst, src []float64)
	// Scale computes x[i] *= s in place.
	Scale(x []float64, s float64)

	// VSigmoid, VTanh, VExp, VReLU, VLeakyReLU apply the activation in
	// place. VExp clamps inputs to 40 before exponentiation (the Tape.Exp
	// stability clamp). The transcendentals share one scalar
	// implementation on every backend so their rounding is identical
	// everywhere; the ReLU family has branch-free SIMD variants.
	VSigmoid(x []float64)
	VTanh(x []float64)
	VExp(x []float64)
	VReLU(x []float64)
	VLeakyReLU(x []float64, slope float64)

	// VActGrad computes dst[i] = grad[i] * act'(out[i]) with the
	// derivative expressed through the activation output — the fused
	// Affine/AffineSum backward (preGrad). Every act's derivative is
	// rational in the output (1/0/slope for the ReLU family, 1−y² for
	// tanh, y(1−y) for sigmoid), so SIMD implementations stay
	// bit-identical: each element is the same multiply chain.
	VActGrad(dst, grad, out []float64, act Act)
}

// compiledBackends lists every backend compiled into this binary in
// preference order (later entries preferred by auto-selection). The
// build-tagged asm files append to it from init when the CPU qualifies.
var compiledBackends = []Backend{pureBackend{}, tunedBackend{}}

// backendImpl is the active backend. It is chosen once before main (or
// the test binary) runs; SetBackend may replace it at startup or between
// benchmark phases, but must not race with in-flight kernels. The
// declaration default covers package variable initialisers that run
// kernels before init(); selection happens in init(), after every
// build-tagged registration var has appended to compiledBackends.
var backendImpl Backend = pureBackend{}

func init() { backendImpl = initBackend() }

// registerBackend appends a build-tagged backend during package variable
// initialisation (before any init() runs, so selection sees it).
func registerBackend(b Backend) struct{} {
	compiledBackends = append(compiledBackends, b)
	return struct{}{}
}

// initBackend resolves the active backend: the VRDAG_BACKEND environment
// variable if set ("purego", "tuned", "avx2", "neon"), otherwise the most
// capable compiled-in backend for this CPU. A name that is not compiled
// in (or not supported by this CPU) falls back to that default with a
// warning on stderr.
func initBackend() Backend {
	if name := os.Getenv("VRDAG_BACKEND"); name != "" {
		if b := backendByName(name); b != nil {
			return b
		}
		fmt.Fprintf(os.Stderr, "vrdag/tensor: VRDAG_BACKEND=%q not available in this build (have %v); using %q\n",
			name, BackendNames(), compiledBackends[len(compiledBackends)-1].Name())
	}
	return compiledBackends[len(compiledBackends)-1]
}

func backendByName(name string) Backend {
	for _, b := range compiledBackends {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

// ActiveBackend returns the name of the backend serving all kernel calls.
func ActiveBackend() string { return backendImpl.Name() }

// BackendNames lists the backends compiled into this binary, least to
// most preferred.
func BackendNames() []string {
	names := make([]string, len(compiledBackends))
	for i, b := range compiledBackends {
		names[i] = b.Name()
	}
	return names
}

// SetBackend switches the active backend by name. It is a startup /
// benchmark-harness hook, not a concurrency feature: callers must
// guarantee no kernel is executing during the switch.
func SetBackend(name string) error {
	b := backendByName(name)
	if b == nil {
		return fmt.Errorf("tensor: backend %q not compiled in (have %v)", name, BackendNames())
	}
	backendImpl = b
	return nil
}

// CPUFeatures reports the SIMD-relevant CPU features detected at startup
// (empty on platforms without a probe or under the purego build tag).
func CPUFeatures() []string { return cpuFeatureNames }

// cpuFeatureNames is populated by the per-architecture probe's init.
var cpuFeatureNames []string

// ---- Exported vector-math dispatch ----
//
// The tape-free forward paths (internal/nn, internal/gnn, the decode loop
// in internal/core) apply activations over raw slices; routing them here
// keeps every elementwise transcendental on the backend's kernel.

// VSigmoid applies the logistic function elementwise in place.
func VSigmoid(x []float64) { backendImpl.VSigmoid(x) }

// VTanh applies tanh elementwise in place.
func VTanh(x []float64) { backendImpl.VTanh(x) }

// VExp applies exp(min(x, 40)) elementwise in place (the tape's Exp
// stability clamp).
func VExp(x []float64) { backendImpl.VExp(x) }

// VReLU applies max(0, x) elementwise in place.
func VReLU(x []float64) { backendImpl.VReLU(x) }

// VLeakyReLU applies x>0 ? x : slope*x elementwise in place.
func VLeakyReLU(x []float64, slope float64) { backendImpl.VLeakyReLU(x, slope) }
