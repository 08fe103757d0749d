// Package approx provides the floating-point comparison helpers tests
// should use instead of == / != (the floateq analyzer flags those).
// Exact comparison is still correct in two situations — bit-exact
// determinism checks and values specified as exact (integer-valued
// floats, powers of two) — and those sites carry a
// `//simlint:allow floateq <reason>` directive instead.
package approx

import "math"

// DefaultTol is the relative tolerance used by Equal: loose enough to
// absorb reassociation-level float error, tight enough that any real
// model change trips it.
const DefaultTol = 1e-9

// Close reports whether a and b agree to within tol, relative to the
// larger magnitude (absolute for values below 1). NaN is close to
// nothing, including itself.
//
//simlint:allow unused a test helper: the tests of other packages call it
func Close(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { // fast path; also the only way ±Inf compares true
		return true
	}
	// Unequal infinities (or an infinity vs anything finite) would
	// otherwise satisfy |a-b| <= tol·scale as Inf <= Inf.
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}

// Equal is Close at DefaultTol.
//
//simlint:allow unused a test helper: the tests of other packages call it
func Equal(a, b float64) bool { return Close(a, b, DefaultTol) }

// Zero reports whether v is within tol of zero.
//
//simlint:allow unused a test helper: the tests of other packages call it
func Zero(v, tol float64) bool { return math.Abs(v) <= tol }
