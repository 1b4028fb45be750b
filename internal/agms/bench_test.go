package agms

import (
	"fmt"
	"testing"
)

// BenchmarkUpdateBySize shows the O(s1·s2) per-element cost growing with
// the synopsis — the scaling the skimmed sketch's hash structure removes.
func BenchmarkUpdateBySize(b *testing.B) {
	for _, words := range []int{128, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			s := MustNew(words/8, 8, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(uint64(i), 1)
			}
		})
	}
}

func BenchmarkJoinEstimate(b *testing.B) {
	f := MustNew(256, 11, 1)
	g := MustNew(256, 11, 1)
	for v := uint64(0); v < 10000; v++ {
		f.Update(v%1024, 1)
		g.Update(v%512, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoinEstimate(f, g); err != nil {
			b.Fatal(err)
		}
	}
}
