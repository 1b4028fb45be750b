package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func threeShards() Config {
	return Config{Shards: []Shard{
		{Name: "s0", Addr: "http://127.0.0.1:9101"},
		{Name: "s1", Addr: "http://127.0.0.1:9102"},
		{Name: "s2", Addr: "http://127.0.0.1:9103"},
	}}
}

func TestConfigValidate(t *testing.T) {
	if err := threeShards().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"no name", Config{Shards: []Shard{{Addr: "http://x:1"}}}},
		{"dup name", Config{Shards: []Shard{
			{Name: "a", Addr: "http://x:1"}, {Name: "a", Addr: "http://x:2"},
		}}},
		{"dup addr", Config{Shards: []Shard{
			{Name: "a", Addr: "http://x:1"}, {Name: "b", Addr: "http://x:1/"},
		}}},
		{"relative addr", Config{Shards: []Shard{{Name: "a", Addr: "x:1"}}}},
		{"bad scheme", Config{Shards: []Shard{{Name: "a", Addr: "tcp://x:1"}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ring.json")
	body := `{"shards":[{"name":"s0","addr":"http://127.0.0.1:9101"},{"name":"s1","addr":"http://127.0.0.1:9102"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shards) != 2 || cfg.Shards[1].Name != "s1" {
		t.Fatalf("loaded %+v", cfg)
	}
	// Unknown fields fail loudly: a typo must not silently shrink the ring.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"shard":[{"name":"s0","addr":"http://x:1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("LoadConfig accepted a config with an unknown top-level key")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadConfig accepted a missing file")
	}
}

// TestRouteDeterministicAndPartitioning: routing is a pure function of
// (tenant, stream, value) — every process computes the same placement —
// and spreads a value domain over every shard (no starved shard).
func TestRouteDeterministicAndPartitioning(t *testing.T) {
	cfg := threeShards()
	hits := make([]int, len(cfg.Shards))
	for v := uint64(0); v < 3000; v++ {
		si := cfg.Route("default", "F", v)
		if again := cfg.Route("default", "F", v); again != si {
			t.Fatalf("Route not deterministic for value %d: %d then %d", v, si, again)
		}
		if si < 0 || si >= len(cfg.Shards) {
			t.Fatalf("Route out of range: %d", si)
		}
		hits[si]++
	}
	for i, h := range hits {
		if h == 0 {
			t.Fatalf("shard %d received no values out of 3000", i)
		}
	}
	// Tenant and stream both separate the placement keyspace.
	diff := 0
	for v := uint64(0); v < 100; v++ {
		if cfg.Route("a", "F", v) != cfg.Route("b", "F", v) {
			diff++
		}
		if cfg.Route("a", "F", v) != cfg.Route("a", "G", v) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("tenant/stream do not participate in routing")
	}
	// Length-prefixing: ("ab","c") and ("a","bc") must not be forced to
	// collide by concatenation.
	collide := true
	for v := uint64(0); v < 100; v++ {
		if cfg.Route("ab", "c", v) != cfg.Route("a", "bc", v) {
			collide = false
			break
		}
	}
	if collide {
		t.Fatal("routing concatenates names without length prefixes")
	}
}

// refRoute is the placement Route promises, built on hash/fnv: FNV-1a
// 64 over u64 len(tenant) · tenant · u64 len(stream) · stream · u64
// value, little-endian, mod the shard count.
func refRoute(tenant, stream string, value uint64, shards int) int {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(tenant)))
	h.Write(n[:])
	h.Write([]byte(tenant))
	binary.LittleEndian.PutUint64(n[:], uint64(len(stream)))
	h.Write(n[:])
	h.Write([]byte(stream))
	binary.LittleEndian.PutUint64(n[:], value)
	h.Write(n[:])
	return int(h.Sum64() % uint64(shards))
}

// ring returns a Config of n shards (addresses are never dialed).
func ring(n int) Config {
	var c Config
	for i := 0; i < n; i++ {
		c.Shards = append(c.Shards, Shard{Name: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9100+i)})
	}
	return c
}

// TestRouteMatchesFNVReference: Route, and the per-group prefix path the
// merger routes with, both place every element exactly where the
// hash/fnv reference does, on rings of 1–7 shards, for empty, ordinary
// and 255-byte names and values over the full uint64 range.
func TestRouteMatchesFNVReference(t *testing.T) {
	names := []string{"", "default", "F", "ab", strings.Repeat("n", 255)}
	values := []uint64{0, 1, 255, 256, 1<<32 - 1, 1 << 32, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 64; i++ {
		values = append(values, rng.Uint64())
	}
	for shards := 1; shards <= 7; shards++ {
		c := ring(shards)
		for _, tenant := range names {
			for _, stream := range names {
				prefix := routePrefix(tenant, stream)
				for _, v := range values {
					want := refRoute(tenant, stream, v, shards)
					if got := c.Route(tenant, stream, v); got != want {
						t.Fatalf("%d shards: Route(%q, %q, %d) = %d, reference %d", shards, tenant, stream, v, got, want)
					}
					if got := c.shardOf(prefix, v); got != want {
						t.Fatalf("%d shards: shardOf(routePrefix(%q, %q), %d) = %d, reference %d", shards, tenant, stream, v, got, want)
					}
				}
			}
		}
	}
}
