package lint_test

import (
	"testing"

	"skimsketch/internal/lint"
	"skimsketch/internal/lint/analysistest"
)

func TestPoolOwn(t *testing.T) {
	analysistest.Run(t, lint.PoolOwn, "testdata/src/poolown")
}

// TestPoolOwnCleanPatterns exercises the sanctioned ownership shapes —
// Put-on-every-path, deferred Put, and the release callback with
// error-path Puts used by the SKSP listener. The fixture has no want
// comments, so any diagnostic fails the run.
func TestPoolOwnCleanPatterns(t *testing.T) {
	analysistest.Run(t, lint.PoolOwn, "testdata/src/poolown_clean")
}
