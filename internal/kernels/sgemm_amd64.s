#include "textflag.h"

// func sgemm(a, b, c []float32, n int)
//
// For each row i of c and each k with a[i][k] != ±0, in k order:
// c[i][j] = b[k][j]*a[i][k] + c[i][j] for every j, sixteen lanes per
// iteration, then four, then one. The sixteen-lane loop starts on a
// 64-byte boundary wherever the linker puts the function.
TEXT ·sgemm(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI  // a[i][k]
	MOVQ b_base+24(FP), SI
	MOVQ c_base+48(FP), DX // row i of c
	MOVQ n+72(FP), CX
	TESTQ CX, CX
	JLE  done
	LEAQ (CX*4), BX        // bytes per row
	MOVQ CX, R12
	ANDQ $-16, R12         // columns the sixteen-lane loop covers
	MOVQ CX, R13
	ANDQ $-4, R13          // columns the four-lane loop covers
	MOVQ CX, R8            // rows left

row:
	MOVQ SI, R10 // row k of b
	MOVQ CX, R9  // k left

kloop:
	MOVL  (DI), AX
	TESTL $0x7fffffff, AX // a[i][k] == ±0: skip, as sgemmGo does
	JEQ   nextk
	MOVSS (DI), X0
	SHUFPS $0, X0, X0
	XORQ  R11, R11 // column j
	CMPQ  R11, R12
	JLT   lanes16
	JMP   lanes4
	PCALIGN $64

lanes16:
	MOVUPS (R10)(R11*4), X1
	MOVUPS 16(R10)(R11*4), X2
	MOVUPS 32(R10)(R11*4), X3
	MOVUPS 48(R10)(R11*4), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DX)(R11*4), X5
	MOVUPS 16(DX)(R11*4), X6
	MOVUPS 32(DX)(R11*4), X7
	MOVUPS 48(DX)(R11*4), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DX)(R11*4)
	MOVUPS X2, 16(DX)(R11*4)
	MOVUPS X3, 32(DX)(R11*4)
	MOVUPS X4, 48(DX)(R11*4)
	ADDQ   $16, R11
	CMPQ   R11, R12
	JLT    lanes16

lanes4:
	CMPQ   R11, R13
	JGE    lanes1
	MOVUPS (R10)(R11*4), X1
	MULPS  X0, X1
	MOVUPS (DX)(R11*4), X5
	ADDPS  X5, X1
	MOVUPS X1, (DX)(R11*4)
	ADDQ   $4, R11
	JMP    lanes4

lanes1:
	CMPQ  R11, CX
	JGE   nextk
	MOVSS (R10)(R11*4), X1
	MULSS X0, X1
	ADDSS (DX)(R11*4), X1
	MOVSS X1, (DX)(R11*4)
	INCQ  R11
	JMP   lanes1

nextk:
	ADDQ $4, DI
	ADDQ BX, R10
	DECQ R9
	JNZ  kloop
	ADDQ BX, DX
	DECQ R8
	JNZ  row

done:
	RET
