package skimsketch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleMapsMatchTree checks the two module maps, README's
// "Architecture" block and DESIGN's "Module map" block, against the
// tree: every path a block names must exist, and every top-level
// directory under internal/ and cmd/ must be named.
func TestModuleMapsMatchTree(t *testing.T) {
	var dirs []string
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, parent+"/"+e.Name()+"/")
			}
		}
	}
	for _, m := range []struct{ file, heading string }{
		{"README.md", "## Architecture"},
		{"DESIGN.md", "## 4. Module map"},
	} {
		named := map[string]bool{}
		for _, p := range mapPaths(t, m.file, m.heading) {
			if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
				t.Errorf("%s %q names %s, which does not exist", m.file, m.heading, p)
			}
			named[p] = true
		}
		for _, d := range dirs {
			if !named[d] {
				t.Errorf("%s %q does not name %s", m.file, m.heading, d)
			}
		}
	}
}

// mapPaths returns the paths named by the first fenced block after
// heading in file. A line names a path with its first word, either at
// the margin or indented two spaces under the last directory named at
// the margin (README's tree). Lines indented further continue a
// description.
func mapPaths(t *testing.T, file, heading string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(data), "\n"+heading+"\n")
	_, rest, _ = strings.Cut(rest, "```\n")
	block, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatalf("%s has no fenced block under %q", file, heading)
	}
	var paths []string
	dir := ""
	for _, line := range strings.Split(block, "\n") {
		name, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch {
		case name == "" || strings.HasPrefix(line, "   "):
			continue
		case strings.HasPrefix(line, "  "):
			name = dir + name
		case strings.HasSuffix(name, "/"):
			dir = name
		}
		paths = append(paths, name)
	}
	return paths
}
