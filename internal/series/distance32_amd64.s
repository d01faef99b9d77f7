#include "go_asm.h"
#include "textflag.h"

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func Prefetch(rec []byte)
//
// One PREFETCHT0 per 64-byte line rec spans, from the line holding its first
// byte to the line holding its last; an empty rec issues none.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ  rec_base+0(FP), SI
	MOVQ  rec_len+8(FP), CX
	TESTQ CX, CX
	JZ    done
	ADDQ  SI, CX                       // one past the last byte
	ANDQ  $-64, SI                     // the first byte's line
line:
	PREFETCHT0 (SI)
	ADDQ  $64, SI
	CMPQ  SI, CX
	JB    line
done:
	RET

// tailmask holds eight all-ones words followed by eight zero words: the
// 32 bytes starting 4*(8-k) bytes in select the first k float32 lanes of a
// VMASKMOVPS load, k = 0..8.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// ACCUMULATE squares the sixteen float32 differences in Y4 (readings 0-7)
// and Y5 (readings 8-15) into the sixteen float64 lanes Y0..Y3: reading j
// lands in lane j, lanes 4k..4k+3 live in Yk.
#define ACCUMULATE \
	VCVTPS2PD    X4, Y6     \
	VEXTRACTF128 $1, Y4, X7 \
	VCVTPS2PD    X7, Y7     \
	VCVTPS2PD    X5, Y8     \
	VEXTRACTF128 $1, Y5, X9 \
	VCVTPS2PD    X9, Y9     \
	VFMADD231PD  Y6, Y6, Y0 \
	VFMADD231PD  Y7, Y7, Y1 \
	VFMADD231PD  Y8, Y8, Y2 \
	VFMADD231PD  Y9, Y9, Y3

// FOLD leaves ((s0+s4)+(s8+s12) + (s2+s6)+(s10+s14)) +
// ((s1+s5)+(s9+s13) + (s3+s7)+(s11+s15)) in X10 — the fold order
// distance32.go documents — without disturbing the lanes.
#define FOLD \
	VADDPD       Y1, Y0, Y10    \
	VADDPD       Y3, Y2, Y11    \
	VADDPD       Y11, Y10, Y10  \
	VEXTRACTF128 $1, Y10, X11   \
	VADDPD       X11, X10, X10  \
	VUNPCKHPD    X10, X10, X11  \
	VADDSD       X11, X10, X10

// func sqDist32AVX2(q []float32, rec []byte, limit float64) float64
//
// The AVX2+FMA implementation of the scan kernel; see distance32.go for the
// arithmetic it shares with sqDist32Go. The caller guarantees
// len(rec) == 4*len(q); loads are unaligned, so rec may sit at any address.
TEXT ·sqDist32AVX2(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   rec_base+24(FP), DI
	VMOVSD limit+48(FP), X15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, R10
	SHRQ   $4, R10                     // full groups of 16 readings
	ANDQ   $15, CX                     // readings in the partial group
	MOVQ   $(const_abandonBlock/16), R11 // groups until the next limit check

group:
	TESTQ   R10, R10
	JZ      tail
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VSUBPS  (DI), Y4, Y4
	VSUBPS  32(DI), Y5, Y5
	ACCUMULATE
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    R10
	DECQ    R11
	JNZ     group
	FOLD
	VUCOMISD X15, X10
	JHI     done                       // fold > limit; a NaN fold compares unordered and scans on
	MOVQ    $(const_abandonBlock/16), R11
	JMP     group

tail:
	TESTQ CX, CX
	JZ    fold
	// Masked loads zero the lanes past the end (and never touch their
	// memory), so the partial group adds exact zeros to the unused lanes.
	LEAQ  tailmask<>(SB), R8
	MOVQ  CX, R9
	SUBQ  $8, R9                       // readings in the second vector, if > 0
	JGT   twovectors
	NEGQ  CX
	VMOVDQU     32(R8)(CX*4), Y12
	VMASKMOVPS  (SI), Y12, Y4
	VMASKMOVPS  (DI), Y12, Y13
	VSUBPS      Y13, Y4, Y4
	VXORPS      Y5, Y5, Y5
	JMP   tailsum

twovectors:
	NEGQ  R9
	VMOVDQU     32(R8)(R9*4), Y12
	VMOVUPS     (SI), Y4
	VSUBPS      (DI), Y4, Y4
	VMASKMOVPS  32(SI), Y12, Y5
	VMASKMOVPS  32(DI), Y12, Y13
	VSUBPS      Y13, Y5, Y5

tailsum:
	ACCUMULATE

fold:
	FOLD

done:
	VZEROUPPER
	VMOVSD X10, ret+56(FP)
	RET
