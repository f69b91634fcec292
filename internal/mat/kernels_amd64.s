//go:build amd64 && !purego

#include "textflag.h"

// Every kernel here keeps the pure-Go kernels' rounding exactly: products
// and sums are separate VMULPD/VADDPD instructions (never a fused
// multiply-add), each vector lane carries one output element, and every
// add takes the running value as its first source operand.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x8(dst *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, kdim, n8, add int)
//
// For r in 0..3 and j in 0..n8-1 (n8 a positive multiple of 8, kdim > 0):
//
//	s := +0
//	for k := 0; k < kdim; k++ { s += a[r*ars+k*aks] * b[k*ldb+j] }
//	dst[r*ldd+j] = s        (add == 0)
//	dst[r*ldd+j] += s       (add != 0)
//
// Strides are in elements. Each 4-row × 8-column panel keeps its 32 sums
// in Y0–Y7 (row r in Y(2r), Y(2r+1)) for the whole k loop.
TEXT ·gemm4x8(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	SHLQ $3, DX
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ aks+32(FP), R11
	SHLQ $3, R11
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R12
	SHLQ $3, R12
	MOVQ n8+64(FP), R13

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R8
	MOVQ BX, CX
	MOVQ kdim+56(FP), AX

kloop:
	VMOVUPD      (CX), Y8
	VMOVUPD      32(CX), Y9
	VBROADCASTSD (R8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R8)(R9*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R8)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R8)(R10*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R11, R8
	ADDQ         R12, CX
	DECQ         AX
	JNZ          kloop

	LEAQ (DX)(DX*2), AX
	CMPQ add+72(FP), $0
	JEQ  store

	// dst += s, with the old dst value as the first operand.
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD 32(DI), Y9
	VADDPD  Y1, Y9, Y1
	VMOVUPD (DI)(DX*1), Y8
	VADDPD  Y2, Y8, Y2
	VMOVUPD 32(DI)(DX*1), Y9
	VADDPD  Y3, Y9, Y3
	VMOVUPD (DI)(DX*2), Y8
	VADDPD  Y4, Y8, Y4
	VMOVUPD 32(DI)(DX*2), Y9
	VADDPD  Y5, Y9, Y5
	VMOVUPD (DI)(AX*1), Y8
	VADDPD  Y6, Y8, Y6
	VMOVUPD 32(DI)(AX*1), Y9
	VADDPD  Y7, Y9, Y7

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, 32(DI)(DX*2)
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, 32(DI)(AX*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, R13
	JNZ     panel
	VZEROUPPER
	RET

// func addVec(dst, src *float64, n int)
//
// dst[i] = dst[i] + src[i] for i in 0..n-1.
TEXT ·addVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add16:
	CMPQ    CX, $16
	JLT     add4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ    CX, $4
	JLT     add1
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ  CX, CX
	JEQ    addDone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func axpyVec(dst *float64, s float64, src *float64, n int)
//
// dst[i] = dst[i] + s*src[i] for i in 0..n-1.
TEXT ·axpyVec(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	VBROADCASTSD s+8(FP), Y15
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX

axpy16:
	CMPQ    CX, $16
	JLT     axpy4
	VMULPD  (SI), Y15, Y4
	VMULPD  32(SI), Y15, Y5
	VMULPD  64(SI), Y15, Y6
	VMULPD  96(SI), Y15, Y7
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPD  (SI), Y15, Y4
	VMOVUPD (DI), Y0
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ  CX, CX
	JEQ    axpyDone
	VMULSD (SI), X15, X4
	VMOVSD (DI), X0
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET
