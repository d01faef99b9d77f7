#include "textflag.h"

// LANE measures coordinate x (broadcast in Y4) against four points of the
// group, whose coordinates sit at off(DI), into the accumulator acc:
// acc += (x - p) * (x - p), rounded after the subtract, the multiply and the
// add, as SqDist rounds them.
#define LANE(off, acc) \
	VSUBPD off(DI), Y4, Y5 \
	VMULPD Y5, Y5, Y5      \
	VADDPD Y5, acc, acc

// func sqDistLanesAVX2(x, lanes, out []float64)
//
// The AVX2 lane kernel; see lanes.go for the layout and the arithmetic.
// The caller guarantees len(x) > 0, len(out) a multiple of 16 and
// len(lanes) == len(out)*len(x); loads and stores are unaligned.
TEXT ·sqDistLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ lanes_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R8
	SHRQ $4, R8                        // groups of sixteen points

group:
	TESTQ  R8, R8
	JZ     done
	VXORPD Y0, Y0, Y0                  // points 0-3 of the group
	VXORPD Y1, Y1, Y1                  // points 4-7
	VXORPD Y2, Y2, Y2                  // points 8-11
	VXORPD Y3, Y3, Y3                  // points 12-15
	MOVQ   SI, R9
	MOVQ   CX, R10

coord:
	VBROADCASTSD (R9), Y4
	LANE(0, Y0)
	LANE(32, Y1)
	LANE(64, Y2)
	LANE(96, Y3)
	ADDQ $8, R9
	ADDQ $128, DI
	DECQ R10
	JNZ  coord

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $128, DX
	DECQ    R8
	JMP     group

done:
	VZEROUPPER
	RET
