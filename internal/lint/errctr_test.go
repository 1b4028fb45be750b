package lint_test

import (
	"testing"

	"skimsketch/internal/lint"
	"skimsketch/internal/lint/analysistest"
)

func TestErrCtr(t *testing.T) {
	analysistest.Run(t, lint.ErrCtr, "testdata/src/errctr")
}

// TestErrCtrCleanPatterns covers the sanctioned error contracts —
// errors.Is, Reject literals with RetryAfter, %w wrapping. No want comments:
// any diagnostic fails the run.
func TestErrCtrCleanPatterns(t *testing.T) {
	analysistest.Run(t, lint.ErrCtr, "testdata/src/errctr_clean")
}
