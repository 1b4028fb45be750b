package lint_test

import (
	"testing"

	"skimsketch/internal/lint"
	"skimsketch/internal/lint/analysistest"
)

func TestLockScope(t *testing.T) {
	analysistest.Run(t, lint.LockScope, "testdata/src/lockscope")
}

// TestLockScopeCleanPatterns covers the sanctioned shapes — snapshot
// under the lock then estimate, a branch-local lock, a goroutine spawned
// under the lock. No want comments: any diagnostic fails the run.
func TestLockScopeCleanPatterns(t *testing.T) {
	analysistest.Run(t, lint.LockScope, "testdata/src/lockscope_clean")
}
