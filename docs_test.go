package ecndelay_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose docs, the Makefile and the build-and-run notes of the hidden
// skills directory name commands by path (`./cmd/ecnbench`,
// `cmd/packetsim/testdata`). A deleted or renamed command must not live on
// there as a recipe that no longer runs.
func TestDocsNameExistingCommands(t *testing.T) {
	notes, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(notes) == 0 {
		t.Fatalf("no build-and-run notes found (%v)", err)
	}
	ref := regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	found := 0
	for _, doc := range append([]string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"}, notes...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				found++
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, but there is no cmd/%s directory", doc, i+1, m[0], m[1])
				}
			}
		}
	}
	if found == 0 {
		t.Error("no command path found in any doc: the pattern has gone stale")
	}
}
