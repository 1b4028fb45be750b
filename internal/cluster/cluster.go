// Package cluster runs sketchd as a multi-process system: shard
// processes each hold a value-partition of every registered synopsis,
// and a merger tier routes ingest to shards, pulls their slim sketch
// payloads, and answers global joins over the sum of the shard
// synopses. The whole design rides on sketch linearity (the
// paper's central property): because every synopsis is a linear
// projection of the frequency vector, the merge of per-shard sketches
// over a value partition is bit-identical to one sketch maintained
// serially over the whole stream — so a healthy cluster answers exactly
// what a single node would, and a degraded cluster answers exactly the
// surviving partition.
//
// Membership is a static JSON list (Config); routing is deterministic
// FNV-1a over (tenant, stream, value), so every process — mergers,
// shards, harnesses — computes the same placement with no coordination.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"strings"
)

// Shard is one member of the ring: a sketchd process reachable at a
// base HTTP URL (e.g. "http://10.0.0.7:8080").
type Shard struct {
	// Name identifies the shard in stats, logs, and degraded-answer
	// reports. Names must be unique within a Config.
	Name string `json:"name"`
	// Addr is the shard's HTTP base URL. Cross-node calls append API
	// paths (/update, /sketch, ...) to it.
	Addr string `json:"addr"`
}

// Config is the static cluster membership: the ordered shard list that
// defines the hash ring. Order matters — routing is position-based — so
// every process in the cluster must load the same file. Growing or
// reordering the ring invalidates existing placement (sketches do not
// move); rebuilding from a checkpoint replay is the resize story for
// now.
type Config struct {
	Shards []Shard `json:"shards"`
}

// Validate checks the membership list: at least one shard, unique
// non-empty names, and well-formed absolute http(s) URLs.
func (c Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: config has no shards")
	}
	seen := make(map[string]struct{}, len(c.Shards))
	addrs := make(map[string]struct{}, len(c.Shards))
	for i, s := range c.Shards {
		if s.Name == "" {
			return fmt.Errorf("cluster: shard %d has no name", i)
		}
		if _, dup := seen[s.Name]; dup {
			return fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = struct{}{}
		u, err := url.Parse(s.Addr)
		if err != nil {
			return fmt.Errorf("cluster: shard %q addr: %w", s.Name, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: shard %q addr %q is not an absolute http(s) URL", s.Name, s.Addr)
		}
		norm := strings.TrimSuffix(s.Addr, "/")
		if _, dup := addrs[norm]; dup {
			return fmt.Errorf("cluster: shard %q addr %q repeats an earlier shard's address", s.Name, s.Addr)
		}
		addrs[norm] = struct{}{}
	}
	return nil
}

// LoadConfig reads and validates a membership file: a JSON object
// {"shards":[{"name":"s0","addr":"http://..."}, ...]}. Unknown fields
// are rejected so a typo'd key fails loudly at boot instead of silently
// shrinking the ring.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("cluster: open config: %w", err)
	}
	defer f.Close()
	var c Config
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("cluster: parse config %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("cluster: config %s: %w", path, err)
	}
	return c, nil
}

// Route places one stream element on the ring: FNV-1a 64 over the
// (tenant, stream, value) triple, mod the shard count. Routing at value
// granularity — not stream granularity — is what makes degraded answers
// meaningful: every shard holds a partial synopsis of every stream, so
// the merge of any shard subset is exactly the synopsis of that subset's
// value partition, and a healthy merge of all shards is bit-identical
// to a single-node synopsis by linearity. (Routing whole streams to
// single shards would lose the entire stream with its shard.)
//
// The hash input is u64 len(tenant) · tenant · u64 len(stream) · stream
// · u64 value, each u64 little-endian. The length prefixes keep the
// triples ("ab","c",v) and ("a","bc",v) from colliding.
func (c Config) Route(tenant, stream string, value uint64) int {
	return c.shardOf(routePrefix(tenant, stream), value)
}

// FNV-1a 64 parameters (hash/fnv).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// routePrefix is Route's FNV-1a state after the (tenant, stream)
// prefix. The merger computes it once per group and finishes it per
// value with shardOf.
func routePrefix(tenant, stream string) uint64 {
	h := fnvU64(fnvOffset64, uint64(len(tenant)))
	h = fnvString(h, tenant)
	h = fnvU64(h, uint64(len(stream)))
	return fnvString(h, stream)
}

// shardOf finishes a routePrefix state with value and maps it onto the
// ring.
func (c Config) shardOf(prefix, value uint64) int {
	return int(fnvU64(prefix, value) % uint64(len(c.Shards)))
}

// fnvU64 folds v's 8 little-endian bytes into the FNV-1a state h.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString folds s's bytes into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
