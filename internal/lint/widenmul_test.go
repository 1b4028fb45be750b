package lint_test

import (
	"testing"

	"skimsketch/internal/lint"
	"skimsketch/internal/lint/analysistest"
)

func TestWidenMul(t *testing.T) {
	analysistest.Run(t, lint.WidenMul, "testdata/src/widenmul")
}

// TestWidenMulCleanPatterns covers products widened first, constant,
// 64-bit and int products. No want comments: any diagnostic fails the
// run.
func TestWidenMulCleanPatterns(t *testing.T) {
	analysistest.Run(t, lint.WidenMul, "testdata/src/widenmul_clean")
}
