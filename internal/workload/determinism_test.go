package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"skimsketch/internal/stream"
)

// hashStream digests a stream's exact bytes (value, weight pairs in
// order, little-endian), so two streams hash equal iff they are
// byte-identical.
func hashStream(updates []stream.Update) string {
	h := sha256.New()
	var buf [16]byte
	for _, u := range updates {
		binary.LittleEndian.PutUint64(buf[:8], u.Value)
		binary.LittleEndian.PutUint64(buf[8:], uint64(u.Weight))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreams pins the byte-exact output of every generator for
// a fixed seed. These digests are a compatibility contract: experiment
// results, documentation numbers and cross-process reproductions all
// assume a seed names one exact stream. If a change here is
// intentional, it is a breaking change to that contract — update the
// digests and say so loudly in the commit message.
func TestGoldenStreams(t *testing.T) {
	zipfBase := func(seed int64) Generator {
		g, err := NewZipf(1024, 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		gen  func() []stream.Update
		want string
	}{
		{
			name: "zipf",
			gen:  func() []stream.Update { return MakeStream(zipfBase(42), 2000) },
			want: "17db92788839ac914a3de9bea62132067da4ce36d2d98e7c2801621192111f54",
		},
		{
			name: "uniform",
			gen:  func() []stream.Update { return MakeStream(NewUniform(1<<16, 7), 2000) },
			want: "9325c7554a498c5977b77140549616fdd6e6e8ee5e2457dbd38763e037343c3f",
		},
		{
			name: "census",
			gen: func() []stream.Update {
				wage, overtime := CensusPair(3000, 3)
				return append(wage, overtime...)
			},
			want: "96d586c1b7e3141a07170015c52509b092cebed06d5cab871dd9430f46b3b0b4",
		},
		{
			name: "with_deletes",
			gen: func() []stream.Update {
				return WithDeletes(MakeStream(zipfBase(42), 1000), 0.2, 19)
			},
			want: "6b6adc3d83741866129bd240c392fd302cab6783a4c2778a15186b6a930a165c",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := hashStream(tc.gen())
			if got != tc.want {
				t.Errorf("stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}
