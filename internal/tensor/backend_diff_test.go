package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// Differential suite: every backend compiled into this binary must be
// bit-identical (math.Float64bits) to the pure-Go reference on every
// kernel, for every shape — including ragged shapes that exercise the
// SIMD tails (n%16, n%8, n%4 remainders), k spans crossing the
// matMulKBlock panel boundary, the nz%4 compaction remainder, aliased
// slices, and non-finite inputs through the branchless blend kernels.

// diffBackends returns the compiled backends to hold against the
// reference, excluding purego itself.
func diffBackends() []Backend {
	var bs []Backend
	for _, b := range compiledBackends {
		if b.Name() == "purego" {
			continue
		}
		bs = append(bs, b)
	}
	return bs
}

// fillMixed fills x with a hostile mix: random magnitudes across many
// exponents, exact zeros (the GemmNN/GemmTN zero-skip contract), and
// sign changes. Deterministic per (seed, len).
func fillMixed(x []float64, rng *rand.Rand) {
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0 // exercises the nonzero-compaction path
		case 1:
			x[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30)
		default:
			x[i] = rng.NormFloat64()
		}
	}
}

func cloneSlice(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// gemmVariant adapts the four transpose forms to one (m, k, n) shape
// triple so the differential loop can treat them uniformly.
type gemmVariant struct {
	name string
	// dims returns (aRows, aCols, bRows, bCols) for contraction shape
	// m×k×n under this variant's transposition.
	dims func(m, k, n int) (int, int, int, int)
	call func(bk Backend, out, a, b *Matrix)
}

var gemmVariants = []gemmVariant{
	{"NN", func(m, k, n int) (int, int, int, int) { return m, k, k, n }, func(bk Backend, o, a, b *Matrix) { bk.GemmNN(o, a, b) }},
	{"TN", func(m, k, n int) (int, int, int, int) { return k, m, k, n }, func(bk Backend, o, a, b *Matrix) { bk.GemmTN(o, a, b) }},
	{"NT", func(m, k, n int) (int, int, int, int) { return m, k, n, k }, func(bk Backend, o, a, b *Matrix) { bk.GemmNT(o, a, b) }},
	{"TT", func(m, k, n int) (int, int, int, int) { return k, m, n, k }, func(bk Backend, o, a, b *Matrix) { bk.GemmTT(o, a, b) }},
}

// TestBackendDifferentialGEMM accumulates products into a pre-filled out
// on each candidate backend and on the reference. Pre-filled out matters:
// the kernels' contract is out += …, and a kernel that writes instead of
// accumulating, or touches elements with no nonzero contribution, only
// fails this way.
func TestBackendDifferentialGEMM(t *testing.T) {
	ref := pureBackend{}
	// Shape grid: every n remainder class mod 16/8/4 (the 8- and 4-lane
	// groups and scalar tails), and k crossing the matMulKBlock=128 panel
	// boundary.
	ms := []int{1, 2, 3, 5, 8, 17}
	ks := []int{1, 2, 3, 4, 7, 8, 31, 32, 127, 128, 129, 130}
	ns := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			for _, v := range gemmVariants {
				rng := rand.New(rand.NewSource(42))
				for _, m := range ms {
					for _, k := range ks {
						for _, n := range ns {
							ar, ac, br, bc := v.dims(m, k, n)
							a, b := New(ar, ac), New(br, bc)
							fillMixed(a.Data, rng)
							fillMixed(b.Data, rng)
							want, got := New(m, n), New(m, n)
							fillMixed(want.Data, rng) // accumulate into non-zero out
							copy(got.Data, want.Data)
							v.call(ref, want, a, b)
							v.call(bk, got, a, b)
							if i, ok := sameBits(want.Data, got.Data); !ok {
								t.Fatalf("Gemm%s %dx%dx%d: out[%d] = %x, reference %x",
									v.name, m, k, n, i,
									math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
							}
						}
					}
				}
			}
		})
	}
}

func TestBackendDifferentialVectorOps(t *testing.T) {
	ref := pureBackend{}
	lens := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 127, 128, 129}
	alphas := []float64{0, 1, -1, 0.37, -2.5e10, 1e-300}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, n := range lens {
				src := make([]float64, n)
				base := make([]float64, n)
				fillMixed(src, rng)
				fillMixed(base, rng)
				for _, alpha := range alphas {
					want, got := cloneSlice(base), cloneSlice(base)
					ref.AxpyRow(want, src, alpha)
					bk.AxpyRow(got, src, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("AxpyRow n=%d alpha=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
					// Aliased dst == src: dst[i] += alpha*dst[i]. The kernels
					// load src before storing dst per element, so aliasing is
					// legal and must stay bit-identical too.
					want, got = cloneSlice(base), cloneSlice(base)
					ref.AxpyRow(want, want, alpha)
					bk.AxpyRow(got, got, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("AxpyRow aliased n=%d alpha=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
					want, got = cloneSlice(base), cloneSlice(base)
					ref.Scale(want, alpha)
					bk.Scale(got, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("Scale n=%d s=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
				}
				want, got := cloneSlice(base), cloneSlice(base)
				ref.Add(want, src)
				bk.Add(got, src)
				if i, ok := sameBits(want, got); !ok {
					t.Fatalf("Add n=%d: [%d] %v != %v", n, i, got[i], want[i])
				}
				want, got = cloneSlice(base), cloneSlice(base)
				ref.Add(want, want)
				bk.Add(got, got)
				if i, ok := sameBits(want, got); !ok {
					t.Fatalf("Add aliased n=%d: [%d] %v != %v", n, i, got[i], want[i])
				}
			}
		})
	}
}

// specialValues stresses the branchless compare+blend activation kernels:
// NaN must propagate exactly as the scalar branches decide, signed zeros
// and denormals must round identically, and the vector/tail boundary must
// not change any element.
func specialValues(rng *rand.Rand, n int) []float64 {
	pool := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, 0.2, -0.2, 1e308, -1e308,
	}
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = pool[rng.Intn(len(pool))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func TestBackendDifferentialActivations(t *testing.T) {
	ref := pureBackend{}
	lens := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65}
	acts := []Act{ActIdent, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range lens {
				base := specialValues(rng, n)
				want, got := cloneSlice(base), cloneSlice(base)
				ref.VReLU(want)
				bk.VReLU(got)
				if i, ok := sameBits(want, got); !ok {
					t.Fatalf("VReLU n=%d: [%d] in=%v got=%x want=%x", n, i, base[i],
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				for _, slope := range []float64{0.2, 0.01, -1.5} {
					want, got = cloneSlice(base), cloneSlice(base)
					ref.VLeakyReLU(want, slope)
					bk.VLeakyReLU(got, slope)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("VLeakyReLU n=%d slope=%v: [%d] in=%v got=%x want=%x", n, slope, i, base[i],
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				grad := specialValues(rng, n)
				out := specialValues(rng, n)
				for _, act := range acts {
					want, got = make([]float64, n), make([]float64, n)
					ref.VActGrad(want, grad, out, act)
					bk.VActGrad(got, grad, out, act)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("VActGrad act=%d n=%d: [%d] grad=%v out=%v got=%x want=%x", act, n, i,
							grad[i], out[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// TestArenaAlignment pins the arena allocator's 64-byte guarantee: every
// pool-miss buffer comes from alignedAlloc, whose base lands on a cache
// line so the SIMD kernels' rows start aligned whenever strides are
// multiples of the vector width.
func TestArenaAlignment(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100, 1000, 4096, 65536} {
		for trial := 0; trial < 8; trial++ {
			s := alignedAlloc(n)
			if len(s) != n {
				t.Fatalf("alignedAlloc(%d): len %d", n, len(s))
			}
			if cap(s) != n {
				t.Fatalf("alignedAlloc(%d): cap %d escapes the bucket accounting", n, cap(s))
			}
			if addr := uintptr(unsafe.Pointer(&s[0])); addr&63 != 0 {
				t.Fatalf("alignedAlloc(%d): base %#x not 64-byte aligned", n, addr)
			}
		}
	}
}

// FuzzGemmDifferential drives random shapes, seeds, and transpose
// variants through the active backend against the reference. The seed
// corpus (testdata/fuzz) covers each variant at tail-heavy shapes.
func FuzzGemmDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(9), uint8(0), int64(1))
	f.Add(uint8(1), uint8(129), uint8(17), uint8(1), int64(2))
	f.Add(uint8(8), uint8(31), uint8(33), uint8(2), int64(3))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(3), int64(4))
	bks := diffBackends()
	f.Fuzz(func(t *testing.T, m8, k8, n8, variant uint8, seed int64) {
		m := int(m8%32) + 1
		k := int(k8%160) + 1
		n := int(n8%96) + 1
		v := gemmVariants[int(variant)%len(gemmVariants)]
		rng := rand.New(rand.NewSource(seed))
		ar, ac, br, bc := v.dims(m, k, n)
		a, b := New(ar, ac), New(br, bc)
		fillMixed(a.Data, rng)
		fillMixed(b.Data, rng)
		base := New(m, n)
		fillMixed(base.Data, rng)
		want := New(m, n)
		copy(want.Data, base.Data)
		v.call(pureBackend{}, want, a, b)
		for _, bk := range bks {
			got := New(m, n)
			copy(got.Data, base.Data)
			v.call(bk, got, a, b)
			if i, ok := sameBits(want.Data, got.Data); !ok {
				t.Fatalf("%s Gemm%s %dx%dx%d seed=%d: out[%d] = %x, reference %x",
					bk.Name(), v.name, m, k, n, seed, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	})
}
