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

// MAC adds src[off/8]·DX to w[off/8] on two carry chains, as Go's
// crypto/internal/fips140/bigmod does: CF carries the high words of the
// products (hin in, hout out) and OF carries the sums with w. SI walks src
// and AX walks w.
#define MAC(off, hin, hout) \
	MULXQ off(SI), R8, hout; \
	ADCXQ hin, R8;           \
	ADOXQ off(AX), R8;       \
	MOVQ  R8, off(AX)

#define MAC8 \
	MAC(0, BX, DI);  \
	MAC(8, DI, BX);  \
	MAC(16, BX, DI); \
	MAC(24, DI, BX); \
	MAC(32, BX, DI); \
	MAC(40, DI, BX); \
	MAC(48, BX, DI); \
	MAC(56, DI, BX)

// func montRowsADX(w, x, y, m *big.Word, k int, mInv big.Word)
//
// Row i adds x·y[i] to w[i:i+k], then u·m for u = w[i]·mInv, each pass 8
// words an iteration. The loop steps with LEAQ and exits on JCXZQ, neither
// of which touches CF or OF, so both chains run the whole row; each pass's
// carry word is the last high word plus CF plus OF. The row's two carry
// words and the top word t (0 or 1) sum into w[i+k], and what carries out
// is the next row's t; the last row's goes to w[2k].
//
// R9 is &w[i], R10 x, R11 m, R12 &y[i], R13 &y[k], R14 zero, R15 t.
TEXT ·montRowsADX(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), R9
	MOVQ x+8(FP), R10
	MOVQ y+16(FP), R12
	MOVQ m+24(FP), R11
	MOVQ k+32(FP), R13
	LEAQ (R12)(R13*8), R13
	XORQ R14, R14
	XORQ R15, R15

row:
	// w[i:i+k] += x·y[i]; the carry word goes to w[i+k], free until the
	// row ends.
	MOVQ (R12), DX
	MOVQ R9, AX
	MOVQ R10, SI
	MOVQ k+32(FP), CX
	SHRQ $3, CX
	XORQ BX, BX

mulY:
	MAC8
	LEAQ  64(SI), SI
	LEAQ  64(AX), AX
	LEAQ  -1(CX), CX
	JCXZQ mulYDone
	JMP   mulY

mulYDone:
	ADCXQ R14, BX
	ADOXQ R14, BX
	MOVQ  BX, (AX)

	// w[i:i+k] += u·m, which zeroes w[i].
	MOVQ  mInv+40(FP), DX
	IMULQ (R9), DX
	MOVQ  R9, AX
	MOVQ  R11, SI
	MOVQ  k+32(FP), CX
	SHRQ  $3, CX
	XORQ  BX, BX

mulU:
	MAC8
	LEAQ  64(SI), SI
	LEAQ  64(AX), AX
	LEAQ  -1(CX), CX
	JCXZQ mulUDone
	JMP   mulU

mulUDone:
	ADCXQ R14, BX
	ADOXQ R14, BX

	// w[i+k] = t + both carry words; the carries out are the next t.
	ADDQ R15, BX
	MOVQ R14, R15
	ADCQ R14, R15
	ADDQ (AX), BX
	ADCQ R14, R15
	MOVQ BX, (AX)

	LEAQ 8(R9), R9
	LEAQ 8(R12), R12
	CMPQ R12, R13
	JNE  row

	MOVQ R15, 8(AX)
	RET
