package binfmt_test

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestFormatsDocMatchesCode checks that docs/FORMATS.md documents
// exactly the SK* formats the code encodes: its "## SK.." headings name
// the same magics as the golden list, and the same as the roundTrips
// table plus SKSP, which internal/wire fuzzes instead.
func TestFormatsDocMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../docs/FORMATS.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^## (SK[A-Z0-9]{2})\b`).FindAllSubmatch(doc, -1) {
		documented = append(documented, string(m[1]))
	}
	slices.Sort(documented)

	var golden []string
	for _, g := range goldenBlobs(t) {
		golden = append(golden, g.name)
	}
	slices.Sort(golden)
	if !slices.Equal(documented, golden) {
		t.Errorf("FORMATS.md documents %v; the golden list encodes %v", documented, golden)
	}

	fuzzed := []string{"SKSP"}
	for magic := range roundTrips {
		fuzzed = append(fuzzed, magic)
	}
	slices.Sort(fuzzed)
	if !slices.Equal(documented, fuzzed) {
		t.Errorf("FORMATS.md documents %v; FuzzDecode's table plus SKSP is %v", documented, fuzzed)
	}
}
