package sdt_test

// The docs link checker: every relative link in the repo's markdown
// files must point at a file that exists, and same-repo markdown
// anchors must resolve to a real heading. This is the CI docs job's
// teeth — WORKLOADS.md/DESIGN.md/EXPERIMENTS.md cross-reference each
// other, and a rename must not rot them silently. The same holds for
// the tests, fuzz targets and benchmarks DESIGN.md names.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) links; images ([!...]) share the form.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// heading matches ATX headings for anchor extraction.
var heading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// slugify reduces a heading to its GitHub anchor: lowercase, spaces to
// hyphens, punctuation dropped.
func slugify(h string) string {
	h = strings.ToLower(h)
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf extracts the anchor set of one markdown file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(data), -1) {
		out[slugify(m[1])] = true
	}
	return out
}

func TestDocLinks(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(mds) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external; not checked offline
			}
			file, anchor, _ := strings.Cut(target, "#")
			if file == "" {
				file = md // same-file anchor
			}
			file = filepath.Join(filepath.Dir(md), file)
			if _, err := os.Stat(file); err != nil {
				t.Errorf("%s: broken link %q: %v", md, target, err)
				continue
			}
			if anchor != "" && strings.HasSuffix(file, ".md") {
				if !anchorsOf(t, file)[anchor] {
					t.Errorf("%s: link %q: no heading for anchor %q in %s", md, target, anchor, file)
				}
			}
		}
	}
}

// The catalogue and design docs must exist and cross-reference each
// other — the docs satellite's contract.
func TestDocCrossReferences(t *testing.T) {
	refs := map[string][]string{
		"DESIGN.md":      {"WORKLOADS.md", "EXPERIMENTS.md"},
		"EXPERIMENTS.md": {"WORKLOADS.md"},
		"WORKLOADS.md":   {"DESIGN.md", "EXPERIMENTS.md"},
	}
	for doc, wants := range refs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s does not reference %s", doc, want)
			}
		}
	}
}

// docTestName matches a `Test…`, `Fuzz…` or `Benchmark…` name in
// backticks, with an optional /subtest suffix; testFunc matches the
// declaration of one.
var (
	docTestName = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_]\\w*)(?:/[^`]*)?`")
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestDesignNamesExistingTests: every test, fuzz target and benchmark
// DESIGN.md names is declared in a _test.go file of the tree, so a
// rename cannot leave the design doc pointing at nothing.
func TestDesignNamesExistingTests(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := docTestName.FindAllStringSubmatch(string(design), -1)
	if len(names) == 0 {
		t.Fatal("DESIGN.md names no test")
	}
	for _, m := range names {
		if !funcs[m[1]] {
			t.Errorf("DESIGN.md names %s, which no _test.go file declares", m[1])
		}
	}
}
