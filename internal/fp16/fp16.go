// Package fp16 implements IEEE 754 binary16 (half precision) conversion in
// software. The mixed-precision training mode ships FP16 gradients to the
// SSD and FP16 weights back; this package makes that path *numerically*
// real — the functional verifier quantises through it, so the reproduction
// can state what mixed precision does to update accuracy rather than just
// counting bytes.
package fp16

import "math"

// Bits is a raw binary16 value: 1 sign bit, 5 exponent bits, 10 mantissa
// bits.
type Bits uint16

// Constants of the binary16 format.
const (
	// MaxValue is the largest finite half-precision value (65504).
	MaxValue = 65504.0
	// MinNormal is the smallest positive normal value (2^-14).
	MinNormal = 6.103515625e-05
	// MinSubnormal is the smallest positive subnormal value (2^-24).
	MinSubnormal = 5.9604644775390625e-08
	// Epsilon is the relative rounding unit (2^-11, round-to-nearest).
	Epsilon = 4.8828125e-04
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even,
// overflowing to infinity and flushing tiny values through the subnormal
// range exactly as hardware does.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf/NaN
		if man != 0 {
			return Bits(sign | 0x7E00) // quiet NaN
		}
		return Bits(sign | 0x7C00) // Inf
	case exp == 0 && man == 0:
		return Bits(sign) // signed zero
	}

	// Unbiased exponent; float32 bias 127, float16 bias 15.
	e := exp - 127 + 15
	switch {
	case e >= 0x1F:
		return Bits(sign | 0x7C00) // overflow → Inf
	case e <= 0:
		// Subnormal half (or underflow to zero). Shift the implicit-1
		// mantissa right; round to nearest even.
		if e < -10 {
			return Bits(sign) // underflows even the subnormal range
		}
		m := man | 0x800000 // restore implicit bit
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		rounded := m + half
		// Round-to-even on exact tie.
		if m&(half*2-1) == half && rounded&(1<<shift) != 0 && m&(1<<shift) == 0 {
			rounded -= half
		}
		return Bits(sign | uint16(rounded>>shift))
	default:
		// Normal: round mantissa from 23 to 10 bits, nearest even.
		rounded := man + 0xFFF + ((man >> 13) & 1)
		if rounded&0x800000 != 0 { // mantissa overflow bumps exponent
			rounded = 0
			e++
			if e >= 0x1F {
				return Bits(sign | 0x7C00)
			}
		}
		return Bits(sign | uint16(e)<<10 | uint16(rounded>>13))
	}
}

// ToFloat32 converts binary16 to float32 exactly (binary16 ⊂ binary32).
func ToFloat32(h Bits) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	man := uint32(h & 0x3FF)

	switch {
	case exp == 0x1F: // Inf/NaN
		return math.Float32frombits(sign | 0x7F800000 | man<<13)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalise into float32.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3FF
		return math.Float32frombits(sign | e<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
	}
}

// Round quantises a float32 through binary16 and back — the exact value a
// mixed-precision interface delivers.
func Round(f float32) float32 { return ToFloat32(FromFloat32(f)) }

// RoundSlice quantises dst[i] = Round(src[i]); dst and src may alias.
func RoundSlice(dst, src []float32) {
	if len(dst) != len(src) {
		panic("fp16: RoundSlice length mismatch")
	}
	for i, v := range src {
		dst[i] = Round(v)
	}
}
