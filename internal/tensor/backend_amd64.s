//go:build amd64 && !purego

#include "textflag.h"

// SIMD kernels for the avx2 compute backend. Bit-stability rules (see
// backend.go):
//
//   - No FMA. Separate VMULPD + VADDPD keep each element's rounding
//     identical to the scalar reference.
//   - Vectorisation is across output elements only. Every lane of every
//     vector below is a distinct output element receiving its products in
//     ascending contraction order, so no element ever sees a reordered or
//     fused sum.
//   - Tails narrow 256→scalar with VEX scalar ops (VMULSD/VADDSD), which
//     round exactly like the Go compiler's SSE scalar code.
//
// All functions are NOSPLIT leaf routines taking raw pointers (wrapped by
// //go:noescape declarations in backend_amd64.go) and end with VZEROUPPER
// to avoid AVX/SSE transition stalls in the Go code they return to.

// func axpyAVX2(dst, src *float64, n int, a float64)
// dst[i] += a*src[i] for i in [0, n).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0

axpy2_loop16:
	CMPQ CX, $16
	JLT  axpy2_loop4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy2_loop16

axpy2_loop4:
	CMPQ CX, $4
	JLT  axpy2_loop1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy2_loop4

axpy2_loop1:
	TESTQ CX, CX
	JEQ   axpy2_done
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy2_loop1

axpy2_done:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float64, n int)
// dst[i] += src[i] for i in [0, n).
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add2_loop16:
	CMPQ CX, $16
	JLT  add2_loop4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     add2_loop16

add2_loop4:
	CMPQ CX, $4
	JLT  add2_loop1
	VMOVUPD (SI), Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     add2_loop4

add2_loop1:
	TESTQ CX, CX
	JEQ   add2_done
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    add2_loop1

add2_done:
	VZEROUPPER
	RET

// func scaleAVX2(x *float64, n int, s float64)
// x[i] *= s for i in [0, n).
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Y0

scale2_loop16:
	CMPQ CX, $16
	JLT  scale2_loop4
	VMULPD (DI), Y0, Y1
	VMULPD 32(DI), Y0, Y2
	VMULPD 64(DI), Y0, Y3
	VMULPD 96(DI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     scale2_loop16

scale2_loop4:
	CMPQ CX, $4
	JLT  scale2_loop1
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale2_loop4

scale2_loop1:
	TESTQ CX, CX
	JEQ   scale2_done
	VMOVSD (DI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale2_loop1

scale2_done:
	VZEROUPPER
	RET

// func vreluAVX2(x *float64, n4 int)
// x[i] = x[i] < 0 ? 0 : x[i] for i in [0, n4), n4 a multiple of 4.
// Branch-free: the scalar reference's data-dependent branch mispredicts
// on random signs. LT_OQ compare (NaN keeps its lane) + blend touch each
// element exactly like the scalar code: -0 and NaN pass through.
TEXT ·vreluAVX2(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n4+8(FP), CX
	VXORPD Y0, Y0, Y0

vrelu_loop4:
	TESTQ     CX, CX
	JEQ       vrelu_done
	VMOVUPD   (DI), Y1
	VCMPPD    $0x11, Y0, Y1, Y2 // mask = x < 0 (LT_OQ)
	VBLENDVPD Y2, Y0, Y1, Y1    // mask ? 0 : x
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       vrelu_loop4

vrelu_done:
	VZEROUPPER
	RET

// func vleakyAVX2(x *float64, n4 int, slope float64)
// x[i] = x[i] < 0 ? slope*x[i] : x[i] for i in [0, n4), n4 a multiple of
// 4. slope*x is computed per element exactly as the scalar reference
// (one multiply); the blend only selects, so the kernel is bit-identical.
TEXT ·vleakyAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n4+8(FP), CX
	VBROADCASTSD slope+16(FP), Y3
	VXORPD       Y0, Y0, Y0

vleaky_loop4:
	TESTQ     CX, CX
	JEQ       vleaky_done
	VMOVUPD   (DI), Y1
	VMULPD    Y1, Y3, Y2        // slope*x
	VCMPPD    $0x11, Y0, Y1, Y4 // mask = x < 0 (LT_OQ)
	VBLENDVPD Y4, Y2, Y1, Y1    // mask ? slope*x : x
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       vleaky_loop4

vleaky_done:
	VZEROUPPER
	RET

// func actGradLRAVX2(dst, grad, out *float64, n4 int, slope float64)
// dst[i] = grad[i] * (out[i] > 0 ? 1 : slope) for i in [0, n4), n4 a
// multiple of 4. slope 0 is the ReLU backward, 0.2 the LeakyReLU one.
// The blend picks the same {1, slope} multiplier the scalar reference
// returns, then one multiply per element — identical including NaN
// propagation (NaN out selects slope, exactly like the scalar y>0 test).
TEXT ·actGradLRAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	VBROADCASTSD slope+32(FP), Y3
	VXORPD       Y0, Y0, Y0
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

actlr_loop4:
	TESTQ     CX, CX
	JEQ       actlr_done
	VMOVUPD   (DX), Y1
	VCMPPD    $0x1E, Y0, Y1, Y2 // mask = out > 0 (GT_OQ)
	VBLENDVPD Y2, Y4, Y3, Y2    // mask ? 1 : slope
	VMOVUPD   (SI), Y1
	VMULPD    Y2, Y1, Y1        // grad * multiplier
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $32, DX
	SUBQ      $4, CX
	JMP       actlr_loop4

actlr_done:
	VZEROUPPER
	RET

// func actGradTanhAVX2(dst, grad, out *float64, n4 int)
// dst[i] = grad[i] * (1 - out[i]*out[i]) for i in [0, n4), n4 a multiple
// of 4 — the tanh backward, elementwise with the scalar reference's
// multiply/subtract/multiply order.
TEXT ·actGradTanhAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

acttanh_loop4:
	TESTQ   CX, CX
	JEQ     acttanh_done
	VMOVUPD (DX), Y1
	VMULPD  Y1, Y1, Y1 // y*y
	VSUBPD  Y1, Y4, Y1 // 1 - y*y
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y2, Y1 // grad * (1 - y*y)
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     acttanh_loop4

acttanh_done:
	VZEROUPPER
	RET

// func actGradSigmoidAVX2(dst, grad, out *float64, n4 int)
// dst[i] = grad[i] * (out[i] * (1 - out[i])) for i in [0, n4), n4 a
// multiple of 4 — the sigmoid backward, same scalar operation order.
TEXT ·actGradSigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

actsig_loop4:
	TESTQ   CX, CX
	JEQ     actsig_done
	VMOVUPD (DX), Y1
	VSUBPD  Y1, Y4, Y2 // 1 - y
	VMULPD  Y2, Y1, Y1 // y * (1 - y)
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y2, Y1 // grad * (y*(1-y))
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     actsig_loop4

actsig_done:
	VZEROUPPER
	RET

// func gemmRowNZAVX2(o, bdata, avs *float64, ps *int32, nz, n int)
// One call per output row: o[j] += avs[q]*b[ps[q]][j] for q in [0, nz)
// ascending, j in [0, n). Groups of four multipliers go through one
// 4-stream loop (four sequential mul+adds per element, in q order), the
// nz%4 remainder as single-stream axpys. Hoisting the group loop out of
// Go removes the per-4-multiplier call overhead that dominated small-n
// GEMMs.
TEXT ·gemmRowNZAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ bdata+8(FP), BX
	MOVQ avs+16(FP), AX
	MOVQ ps+24(FP), DX
	MOVQ nz+32(FP), CX
	MOVQ n+40(FP), R12

rownz_group:
	CMPQ CX, $4
	JLT  rownz_rem

	// Row pointers for this group: bdata + ps[q+c]*n*8.
	MOVLQSX (DX), R15
	IMULQ   R12, R15
	LEAQ    (BX)(R15*8), R8
	MOVLQSX 4(DX), R15
	IMULQ   R12, R15
	LEAQ    (BX)(R15*8), R9
	MOVLQSX 8(DX), R15
	IMULQ   R12, R15
	LEAQ    (BX)(R15*8), R10
	MOVLQSX 12(DX), R15
	IMULQ   R12, R15
	LEAQ    (BX)(R15*8), R11

	VBROADCASTSD (AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	MOVQ         DI, R13
	MOVQ         R12, R14

rownz_loop8:
	CMPQ R14, $8
	JLT  rownz_loop4
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMULPD  (R8), Y4, Y2
	VMULPD  32(R8), Y4, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9), Y5, Y2
	VMULPD  32(R9), Y5, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10), Y6, Y2
	VMULPD  32(R10), Y6, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R11), Y7, Y2
	VMULPD  32(R11), Y7, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ    $64, R13
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	SUBQ    $8, R14
	JMP     rownz_loop8

rownz_loop4:
	CMPQ R14, $4
	JLT  rownz_loop1
	VMOVUPD (R13), Y0
	VMULPD  (R8), Y4, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9), Y5, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10), Y6, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11), Y7, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, R14
	JMP     rownz_loop4

rownz_loop1:
	TESTQ R14, R14
	JEQ   rownz_group_done
	VMOVSD (R13), X0
	VMOVSD (R8), X2
	VMULSD X4, X2, X2
	VADDSD X2, X0, X0
	VMOVSD (R9), X2
	VMULSD X5, X2, X2
	VADDSD X2, X0, X0
	VMOVSD (R10), X2
	VMULSD X6, X2, X2
	VADDSD X2, X0, X0
	VMOVSD (R11), X2
	VMULSD X7, X2, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (R13)
	ADDQ   $8, R13
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   R14
	JMP    rownz_loop1

rownz_group_done:
	ADDQ $32, AX
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  rownz_group

rownz_rem:
	TESTQ CX, CX
	JEQ   rownz_done
	MOVLQSX (DX), R15
	IMULQ   R12, R15
	LEAQ    (BX)(R15*8), R8
	VBROADCASTSD (AX), Y4
	MOVQ    DI, R13
	MOVQ    R12, R14

rownz_rem8:
	CMPQ R14, $8
	JLT  rownz_rem4
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMULPD  (R8), Y4, Y2
	VMULPD  32(R8), Y4, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ    $64, R13
	ADDQ    $64, R8
	SUBQ    $8, R14
	JMP     rownz_rem8

rownz_rem4:
	CMPQ R14, $4
	JLT  rownz_rem1
	VMOVUPD (R13), Y0
	VMULPD  (R8), Y4, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R8
	SUBQ    $4, R14
	JMP     rownz_rem4

rownz_rem1:
	TESTQ R14, R14
	JEQ   rownz_rem_done
	VMOVSD (R13), X0
	VMOVSD (R8), X2
	VMULSD X4, X2, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (R13)
	ADDQ   $8, R13
	ADDQ   $8, R8
	DECQ   R14
	JMP    rownz_rem1

rownz_rem_done:
	ADDQ $8, AX
	ADDQ $4, DX
	DECQ CX
	JMP  rownz_rem

rownz_done:
	VZEROUPPER
	RET

// func ntRowBulkAVX2(o, a, bdata *float64, n4, k, k4 int)
// One call per NT output row: o[j] += Σ_p a[p]*b[j..][p] for j in
// [0, n4), n4 a multiple of 4, b rows contiguous with stride k. Lanes go
// 8 at a time (two independent accumulator chains, register-transposed
// 4×4 blocks) then 4; the p-tail past k4 = k&^3 is
// gathered with scalar loads into one vector step per p. Every lane
// remains a fresh sequential sum over ascending p added once into o —
// the NT contract — with the n%4 column tail left to the Go wrapper.
TEXT ·ntRowBulkAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ bdata+16(FP), BX
	MOVQ n4+24(FP), CX
	MOVQ k+32(FP), DX
	SHLQ $3, DX // row stride in bytes

ntb_group8:
	CMPQ CX, $8
	JLT  ntb_group4
	MOVQ a+8(FP), SI
	MOVQ k4+40(FP), AX
	MOVQ BX, R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), R14
	LEAQ (R14)(DX*1), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

ntb8_loop4:
	TESTQ AX, AX
	JEQ   ntb8_ptail
	VMOVUPD    (R8), Y2
	VMOVUPD    (R9), Y3
	VMOVUPD    (R10), Y4
	VMOVUPD    (R11), Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VPERM2F128 $0x20, Y8, Y6, Y2
	VPERM2F128 $0x20, Y9, Y7, Y3
	VPERM2F128 $0x31, Y8, Y6, Y4
	VPERM2F128 $0x31, Y9, Y7, Y5
	VMOVUPD    (R12), Y6
	VMOVUPD    (R13), Y7
	VMOVUPD    (R14), Y8
	VMOVUPD    (R15), Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VUNPCKLPD  Y9, Y8, Y12
	VUNPCKHPD  Y9, Y8, Y13
	VPERM2F128 $0x20, Y12, Y10, Y6
	VPERM2F128 $0x20, Y13, Y11, Y7
	VPERM2F128 $0x31, Y12, Y10, Y8
	VPERM2F128 $0x31, Y13, Y11, Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y2, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y6, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(SI), Y10
	VMULPD       Y3, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y7, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 16(SI), Y10
	VMULPD       Y4, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 24(SI), Y10
	VMULPD       Y5, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	SUBQ $4, AX
	JMP  ntb8_loop4

ntb8_ptail:
	MOVQ k+32(FP), AX
	SUBQ k4+40(FP), AX

ntb8_ptail_loop:
	TESTQ AX, AX
	JEQ   ntb8_store
	VMOVSD      (R8), X2
	VMOVSD      (R9), X3
	VUNPCKLPD   X3, X2, X2
	VMOVSD      (R10), X3
	VMOVSD      (R11), X4
	VUNPCKLPD   X4, X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVSD      (R12), X3
	VMOVSD      (R13), X4
	VUNPCKLPD   X4, X3, X3
	VMOVSD      (R14), X4
	VMOVSD      (R15), X5
	VUNPCKLPD   X5, X4, X4
	VINSERTF128 $1, X4, Y3, Y3
	VBROADCASTSD (SI), Y10
	VMULPD       Y2, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y3, Y10, Y12
	VADDPD       Y12, Y1, Y1
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	DECQ AX
	JMP  ntb8_ptail_loop

ntb8_store:
	VMOVUPD (DI), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)
	VMOVUPD 32(DI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, DI
	LEAQ    (BX)(DX*8), BX
	SUBQ    $8, CX
	JMP     ntb_group8

ntb_group4:
	CMPQ CX, $4
	JLT  ntb_done
	MOVQ a+8(FP), SI
	MOVQ k4+40(FP), AX
	MOVQ BX, R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VXORPD Y0, Y0, Y0

ntb4_loop4:
	TESTQ AX, AX
	JEQ   ntb4_ptail
	VMOVUPD    (R8), Y2
	VMOVUPD    (R9), Y3
	VMOVUPD    (R10), Y4
	VMOVUPD    (R11), Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VPERM2F128 $0x20, Y8, Y6, Y2
	VPERM2F128 $0x20, Y9, Y7, Y3
	VPERM2F128 $0x31, Y8, Y6, Y4
	VPERM2F128 $0x31, Y9, Y7, Y5
	VBROADCASTSD (SI), Y10
	VMULPD       Y2, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD 8(SI), Y10
	VMULPD       Y3, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD 16(SI), Y10
	VMULPD       Y4, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD 24(SI), Y10
	VMULPD       Y5, Y10, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, AX
	JMP  ntb4_loop4

ntb4_ptail:
	MOVQ k+32(FP), AX
	SUBQ k4+40(FP), AX

ntb4_ptail_loop:
	TESTQ AX, AX
	JEQ   ntb4_store
	VMOVSD      (R8), X2
	VMOVSD      (R9), X3
	VUNPCKLPD   X3, X2, X2
	VMOVSD      (R10), X3
	VMOVSD      (R11), X4
	VUNPCKLPD   X4, X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VBROADCASTSD (SI), Y10
	VMULPD       Y2, Y10, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ AX
	JMP  ntb4_ptail_loop

ntb4_store:
	VMOVUPD (DI), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	LEAQ    (BX)(DX*4), BX
	SUBQ    $4, CX
	JMP     ntb_group4

ntb_done:
	VZEROUPPER
	RET
