//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tileAVX2(d, a, b *float64, n, as, kc, nc int)
//
// Accumulates one k-panel into a strip of four rows of dst: for every column
// j < nc and row r < 4, d[r*n+j] += a[r*as+p] * b[p*n+j] for p = 0..kc-1,
// one product at a time in that order. nc is a positive multiple of 4 and
// kc >= 1; the Go wrapper has checked the extent of all three operands.
//
// The strip is walked in tiles of eight columns (two YMM accumulators per
// row) and, when nc is not a multiple of eight, one last tile of four. A
// column is a vector lane, so a lane holds exactly one output element for the
// whole panel, and each k step is a VMULPD (rounded) followed by a VADDPD
// (rounded) on it: the same two roundings, in the same order, as the scalar
// `s += a * b`. VFMADD would round once and is therefore never used here.
//
// AX a, at column p        R8  n in bytes      DI dst tile, row 0
// BX b, at row p           R9  3*n in bytes    DX b at row 0, this tile's column
// CX k steps left          R10 as in bytes     SI columns left
//                          R11 3*as in bytes
TEXT ·tileAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ as+32(FP), R10
	MOVQ nc+48(FP), SI
	SHLQ $3, R8
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R9
	LEAQ (R10)(R10*2), R11

tile8:
	CMPQ SI, $8
	JLT  tile4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R9*1), Y6
	VMOVUPD 32(DI)(R9*1), Y7
	MOVQ a+8(FP), AX
	MOVQ DX, BX
	MOVQ kc+40(FP), CX

loop8:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ADDQ R8, BX
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (AX)(R10*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $8, AX
	DECQ CX
	JNZ  loop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R9*1)
	VMOVUPD Y7, 32(DI)(R9*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, SI
	JMP  tile8

tile4:
	CMPQ SI, $4
	JLT  done
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD (DI)(R9*1), Y6
	MOVQ a+8(FP), AX
	MOVQ DX, BX
	MOVQ kc+40(FP), CX

loop4:
	VMOVUPD (BX), Y8
	ADDQ R8, BX
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD Y8, Y10, Y12
	VADDPD Y12, Y2, Y2
	VBROADCASTSD (AX)(R10*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD Y8, Y10, Y12
	VADDPD Y12, Y6, Y6
	ADDQ $8, AX
	DECQ CX
	JNZ  loop4

	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y6, (DI)(R9*1)

done:
	VZEROUPPER
	RET

// func mulAddPeakAVX2(steps int)
//
// The roofline of the tile above, for BenchmarkRooflineAVX2: its k step with
// nothing to wait for. Eight YMM accumulators each add one rounded product
// per step, as in loop8, but the operands never leave their registers.
TEXT ·mulAddPeakAVX2(SB), NOSPLIT, $0-8
	MOVQ steps+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10

peak:
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	DECQ CX
	JNZ  peak
	VZEROUPPER
	RET
