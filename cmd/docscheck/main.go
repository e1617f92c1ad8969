// Command docscheck is the repository's documentation gate (`make
// docs-check`). It enforces three invariants CI can hold without
// network access:
//
//   - every relative link in the maintained markdown files resolves to
//     a file or directory in the tree (external http(s) links and pure
//     in-page #fragments are not followed);
//   - every internal/X, cmd/X or examples/X directory those files name
//     exists — deleting a package cannot leave docs pointing at it;
//   - README.md's architecture inventory names every directory under
//     internal/, cmd/ and examples/ — a new package cannot land
//     undocumented.
//
// The retrieved source artifacts (PAPER.md, PAPERS.md, SNIPPETS.md,
// ISSUE.md) are excluded: they are inputs to the project, not
// documentation of it, and carry extraction debris no one maintains.
package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// skippedDocs are markdown files the link gate ignores.
var skippedDocs = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// historyDocs may name directories that do not exist: the change log
// records deleted packages and the roadmap plans new ones. Their links
// are still checked.
var historyDocs = map[string]bool{
	"CHANGES.md": true,
	"ROADMAP.md": true,
}

// inventoryTrees are the top-level directories whose subdirectories the
// docs name as packages.
var inventoryTrees = []string{"internal", "cmd", "examples"}

// pathRE matches a named package directory under an inventory tree
// (internal/X, cmd/X, examples/X) not glued to a longer name, so module
// paths like repro/internal/sim count while subcmd/x does not.
var pathRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.-])((?:` + strings.Join(inventoryTrees, "|") + `)/[A-Za-z0-9_-]+)`)

// linkRE matches inline markdown links and images: [text](target) and
// ![alt](target). Good enough for the prose style these docs use; code
// spans that happen to contain the pattern would have to look exactly
// like a link to false-positive, and none do.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

func main() {
	os.Exit(run(".", os.Stdout))
}

// run checks the tree rooted at root and reports problems to w,
// returning 0 when the docs are clean and 1 otherwise.
func run(root string, w io.Writer) int {
	problems := checkDocs(root)
	problems = append(problems, checkInventory(root)...)
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(w, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Fprintln(w, "docscheck: docs clean")
	return 0
}

// checkDocs resolves every relative link and named package directory in
// the maintained markdown files against the tree.
func checkDocs(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".md") || skippedDocs[name] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; CI stays offline
			}
			if strings.HasPrefix(target, "#") {
				continue // in-page fragment
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
			}
		}
		if historyDocs[rel] {
			return nil
		}
		for _, m := range pathRE.FindAllStringSubmatch(string(data), -1) {
			if fi, err := os.Stat(filepath.Join(root, m[1])); err != nil || !fi.IsDir() {
				problems = append(problems, fmt.Sprintf("%s: names %s, which does not exist", rel, m[1]))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	return problems
}

// checkInventory verifies README.md mentions every package directory
// under the inventory trees, in either spelled-out ("internal/engine")
// or architecture-tree ("engine/") form.
func checkInventory(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	readme := string(data)
	var problems []string
	for _, tree := range inventoryTrees {
		entries, err := os.ReadDir(filepath.Join(root, tree))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return append(problems, fmt.Sprintf("docscheck: %v", err))
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			pkg := tree + "/" + e.Name()
			if !strings.Contains(readme, pkg) && !strings.Contains(readme, e.Name()+"/") {
				problems = append(problems, fmt.Sprintf("README.md: package %s missing from the architecture inventory", pkg))
			}
		}
	}
	return problems
}
