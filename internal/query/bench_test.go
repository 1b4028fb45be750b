package query

import "testing"

func BenchmarkMultiChainUpdateInterior(b *testing.B) {
	c, _ := NewMultiChain(2, 64, 7, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.UpdateInterior(1, uint64(i&255), uint64(i&127), 1)
	}
}

func BenchmarkMultiChainEstimate(b *testing.B) {
	c, _ := NewMultiChain(2, 64, 7, 1)
	for i := 0; i < 10000; i++ {
		c.UpdateEnd(0, uint64(i&255), 1)
		c.UpdateInterior(1, uint64(i&255), uint64(i&127), 1)
		c.UpdateEnd(2, uint64(i&127), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Estimate()
	}
}
