package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a file under dir, creating parents.
func write(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The real repository must pass its own gate: this is the same
// invocation `make docs-check` runs in CI.
func TestRepositoryDocsClean(t *testing.T) {
	var out bytes.Buffer
	if code := run("../..", &out); code != 0 {
		t.Errorf("docs gate failed on the repository:\n%s", out.String())
	}
}

func TestBrokenLinkFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "see [the design](DESIGN.md) and internal/\n")
	write(t, dir, "DESIGN.md", "back to [nowhere](missing/file.md)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with a broken link, want 1", code)
	}
	if !strings.Contains(out.String(), `broken link "missing/file.md"`) {
		t.Errorf("problem does not name the broken target:\n%s", out.String())
	}
	// The working link must not be reported.
	if strings.Contains(out.String(), "DESIGN.md: broken link \"DESIGN.md\"") {
		t.Errorf("resolvable link reported broken:\n%s", out.String())
	}
}

func TestMissingPackageFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "only internal/engine is documented\n")
	write(t, dir, "internal/engine/engine.go", "package engine\n")
	write(t, dir, "internal/orphan/orphan.go", "package orphan\n")
	write(t, dir, "examples/stray/main.go", "package main\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with an undocumented package, want 1", code)
	}
	for _, orphan := range []string{"internal/orphan", "examples/stray"} {
		if !strings.Contains(out.String(), "package "+orphan+" missing") {
			t.Errorf("problem does not name the orphan package %s:\n%s", orphan, out.String())
		}
	}
	if strings.Contains(out.String(), "internal/engine missing") {
		t.Errorf("documented package reported missing:\n%s", out.String())
	}
}

// A maintained doc naming a package directory that no longer exists
// fails the gate, in prose and module-path form alike; the change log
// and the roadmap may name deleted or planned ones.
func TestStalePackagePathFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "internal/engine drives it; see `examples/gone`.\n")
	write(t, dir, "DESIGN.md", "imports repro/internal/vanished and ./cmd/tool\n")
	write(t, dir, "CHANGES.md", "deleted examples/gone\n")
	write(t, dir, "ROADMAP.md", "add an internal/planned package\n")
	write(t, dir, "internal/engine/engine.go", "package engine\n")
	write(t, dir, "cmd/tool/main.go", "package main\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d with stale package paths, want 1", code)
	}
	got := out.String()
	for _, want := range []string{
		"README.md: names examples/gone",
		"DESIGN.md: names internal/vanished",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("problem %q not reported:\n%s", want, got)
		}
	}
	for _, bad := range []string{"internal/engine,", "cmd/tool,", "CHANGES.md", "ROADMAP.md"} {
		if strings.Contains(got, bad) {
			t.Errorf("%q reported, but it exists or is exempt:\n%s", bad, got)
		}
	}
}

// External links and in-page fragments are out of scope: CI runs
// offline and the gate must not fail on them.
func TestExternalAndFragmentLinksSkipped(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md",
		"[paper](https://example.org/lee01.pdf) [anchor](#section) [mail](mailto:x@y.z)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 0 {
		t.Errorf("external/fragment links failed the gate:\n%s", out.String())
	}
}

// Links with a fragment still have their file half resolved.
func TestFragmentOnFileLink(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "[sect](DESIGN.md#policy) [bad](GONE.md#policy)\n")
	write(t, dir, "DESIGN.md", "## policy\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 1 {
		t.Fatalf("exit %d, want 1 (GONE.md does not exist)", code)
	}
	if !strings.Contains(out.String(), `"GONE.md#policy"`) {
		t.Errorf("fragment link's missing file not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "DESIGN.md#policy") {
		t.Errorf("resolvable fragment link reported broken:\n%s", out.String())
	}
}

// The retrieved source artifacts carry extraction debris and are not
// checked.
func TestRetrievedArtifactsSkipped(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "clean\n")
	write(t, dir, "PAPERS.md", "![](_page_0_Picture_1.jpeg)\n")
	var out bytes.Buffer
	if code := run(dir, &out); code != 0 {
		t.Errorf("retrieved artifact failed the gate:\n%s", out.String())
	}
}
