// Fixture for the widenmul analyzer: fixed-width integer products
// widened only after the multiply.
package widenmul

// Bad: uint32 dimensions wrap at 2^32 long before uint64 does.
func counterCount(s1, s2 uint32) uint64 {
	return uint64(s1 * s2) // want `product is computed in uint32 and only then widened to uint64`
}

// Bad: an int32 product wraps before the conversion widens it.
func term(freq, count int32) int64 {
	return int64(freq * count) // want `product is computed in int32 and only then widened to int64`
}

// Bad: the float conversion happens after the integer multiply wraps.
func scale(a, b uint16) float64 {
	return float64(a * b) // want `product is computed in uint16 and only then widened to float64`
}

// Suppressed: a justified narrow multiply stays quiet.
func suppressed(a, b uint32) uint64 {
	//sketchlint:ignore widenmul -- a and b are bounded by small table dimensions
	return uint64(a * b)
}
