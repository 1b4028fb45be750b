// Package distributed provides multi-site aggregation on top of sketch
// linearity: sketches maintained by separate shards or sites are merged
// into one synopsis at query time, and shipped between processes under
// a Retry-After-aware backoff. Because every sketch in this repository
// is a linear projection of the frequency vector, the merged sketch is
// bit-identical to one maintained serially over the concatenated
// stream — the property the tests pin down.
package distributed

import (
	"fmt"

	"skimsketch/internal/core"
)

// Merge combines compatible sketches (local shards or sketches shipped
// from remote sites) into a fresh synopsis of the union of their
// streams. The inputs are never modified, even on error: merging happens
// in a private clone, so a mismatched sketch (different tables, buckets
// or seed) yields an error naming its position and leaves every input —
// and any synopsis the caller might have derived from an earlier call —
// untouched. Zero sketches is an error, not an empty synopsis: the
// caller cannot know a usable Config for one.
func Merge(sketches ...*core.HashSketch) (*core.HashSketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("distributed: nothing to merge")
	}
	out := sketches[0].Clone()
	for i, sk := range sketches[1:] {
		if err := out.Combine(sk); err != nil {
			return nil, fmt.Errorf("distributed: merge sketch %d of %d: %w", i+2, len(sketches), err)
		}
	}
	return out, nil
}
