//go:build amd64 && !purego

package tensor

// Assembly kernel entry points (backend_amd64.s). All are leaf routines
// over raw pointers; the //go:noescape pragma keeps the compaction
// buffers and row slices they receive on the caller's stack.

//go:noescape
func axpyAVX2(dst, src *float64, n int, a float64)

//go:noescape
func addAVX2(dst, src *float64, n int)

//go:noescape
func scaleAVX2(x *float64, n int, s float64)

//go:noescape
func vreluAVX2(x *float64, n4 int)

//go:noescape
func vleakyAVX2(x *float64, n4 int, slope float64)

//go:noescape
func actGradLRAVX2(dst, grad, out *float64, n4 int, slope float64)

//go:noescape
func actGradTanhAVX2(dst, grad, out *float64, n4 int)

//go:noescape
func actGradSigmoidAVX2(dst, grad, out *float64, n4 int)

//go:noescape
func gemmRowNZAVX2(o, bdata, avs *float64, ps *int32, nz, n int)

//go:noescape
func ntRowBulkAVX2(o, a, bdata *float64, n4, k, k4 int)

// amd64feat is probed once during package variable initialisation, before
// backend registration below and backend selection in init().
var amd64feat = detectAMD64()

var _ = registerAMD64Backends()

func registerAMD64Backends() struct{} {
	if amd64feat.avx2 {
		cpuFeatureNames = append(cpuFeatureNames, "avx2")
		registerBackend(avx2Backend{})
	}
	return struct{}{}
}

// avx2Backend runs the hand-written AVX2 kernels: 4-wide no-FMA mul+add
// pairs, bit-identical to the reference (vectorisation across output
// elements only; see backend_amd64.s). GEMM drivers reuse the tuned
// backend's compaction scheme; GemmTT and the vector transcendentals are
// inherited.
type avx2Backend struct{ tunedBackend }

func (avx2Backend) Name() string { return "avx2" }

func (avx2Backend) AxpyRow(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	axpyAVX2(&dst[0], &src[0], n, a)
}

func (avx2Backend) Add(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	addAVX2(&dst[0], &src[0], n)
}

func (avx2Backend) Scale(x []float64, s float64) {
	if len(x) == 0 {
		return
	}
	scaleAVX2(&x[0], len(x), s)
}

func (avx2Backend) GemmNN(out, a, b *Matrix) { gemmNNAsm(out, a, b) }
func (avx2Backend) GemmTN(out, a, b *Matrix) { gemmTNAsm(out, a, b) }
func (avx2Backend) GemmNT(out, a, b *Matrix) { gemmNTAsm(out, a, b) }

// The branch-free activation kernels replace data-dependent branches
// (mispredicted on random signs) with compare+blend; the multiplies they
// select between are the scalar reference's, so they stay bit-identical.

func (avx2Backend) VReLU(x []float64) {
	n4 := len(x) &^ 3
	if n4 > 0 {
		vreluAVX2(&x[0], n4)
	}
	for i := n4; i < len(x); i++ {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}

func (avx2Backend) VLeakyReLU(x []float64, slope float64) {
	n4 := len(x) &^ 3
	if n4 > 0 {
		vleakyAVX2(&x[0], n4, slope)
	}
	for i := n4; i < len(x); i++ {
		if x[i] < 0 {
			x[i] = slope * x[i]
		}
	}
}

func (avx2Backend) VActGrad(dst, grad, out []float64, act Act) {
	n := len(grad)
	n4 := n &^ 3
	if n4 > 0 {
		switch act {
		case ActReLU:
			actGradLRAVX2(&dst[0], &grad[0], &out[0], n4, 0)
		case ActLeakyReLU:
			actGradLRAVX2(&dst[0], &grad[0], &out[0], n4, 0.2)
		case ActTanh:
			actGradTanhAVX2(&dst[0], &grad[0], &out[0], n4)
		case ActSigmoid:
			actGradSigmoidAVX2(&dst[0], &grad[0], &out[0], n4)
		default:
			scalarKernels{}.VActGrad(dst, grad, out, act)
			return
		}
	}
	for i := n4; i < n; i++ {
		dst[i] = grad[i] * actGradFromOutput(out[i], act)
	}
}

// gemmNNAsm is the tuned backend's out += a·b compaction driver (see
// backend_tuned.go) feeding an assembly row kernel.
func gemmNNAsm(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if n == 0 {
		return
	}
	var ps [matMulKBlock]int32
	var avs [matMulKBlock]float64
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		k1 := k0 + matMulKBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			arow := a.Data[i*k+k0 : i*k+k1]
			nz := 0
			for pi, av := range arow {
				if av != 0 {
					ps[nz] = int32(k0 + pi)
					avs[nz] = av
					nz++
				}
			}
			if nz == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			gemmRowNZAVX2(&orow[0], &b.Data[0], &avs[0], &ps[0], nz, n)
		}
	}
}

// gemmTNAsm is the out += aᵀ·b compaction driver feeding an assembly row
// kernel.
func gemmTNAsm(out, a, b *Matrix) {
	m, k, n := a.Cols, a.Rows, b.Cols
	if n == 0 || m == 0 {
		return
	}
	var ps [matMulKBlock]int32
	var avs [matMulKBlock]float64
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		k1 := k0 + matMulKBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			nz := 0
			for p := k0; p < k1; p++ {
				if av := a.Data[p*m+i]; av != 0 {
					ps[nz] = int32(p)
					avs[nz] = av
					nz++
				}
			}
			if nz == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			gemmRowNZAVX2(&orow[0], &b.Data[0], &avs[0], &ps[0], nz, n)
		}
	}
}

// gemmNTAsm computes out += a·bᵀ: one ntRowBulkAVX2 call per output row
// (register-transposed b blocks, one sequential sum per lane), the j-tail
// finished in Go with the same per-lane accumulation order.
func gemmNTAsm(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	if n == 0 {
		return
	}
	for i := 0; i < m; i++ {
		ntRowAsm(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n, k)
	}
}

func ntRowAsm(orow, arow, bdata []float64, n, k int) {
	j := n &^ 3
	if j > 0 {
		ntRowBulkAVX2(&orow[0], &arow[0], &bdata[0], j, k, k&^3)
	}
	for ; j < n; j++ {
		brow := bdata[j*k : (j+1)*k]
		s := 0.0
		for p := 0; p < k; p++ {
			s += arow[p] * brow[p]
		}
		orow[j] += s
	}
}
