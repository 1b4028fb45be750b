// Clean fixture for widenmul: the sanctioned shapes. No want comments,
// so any diagnostic fails the run.
package widenmul_clean

// Widen the operands first.
func counterCount(s1, s2 uint32) uint64 {
	return uint64(s1) * uint64(s2)
}

// Constant products are folded and overflow-checked by the compiler.
func constProduct() int64 {
	return int64(1 << 10 * 3)
}

// Already computed in a 64-bit type.
func wideProduct(a, b int64) int64 {
	return int64(a * b)
}

// int is 64 bits wide on the 64-bit targets CI builds and tests.
func intProduct(a, b int) uint64 {
	return uint64(a * b)
}

// Not a multiply.
func sumWiden(a, b uint32) uint64 {
	return uint64(a + b)
}
