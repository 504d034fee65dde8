package mdts

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documents that describe the tree as it is.
// ROADMAP.md, CHANGES.md and benchmark/README.md are history and may
// name what is gone.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docCode   = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	docPath   = regexp.MustCompile(`(?:^|[^\w-])((?:cmd|internal|bench)/[\w./{},<>*-]*[\w}>*])`)
	docMake   = regexp.MustCompile(`(?:^|[^\w-])make((?:[ \t]+[\w=-]+)+)`)
	docTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	docBraces = regexp.MustCompile(`\{([^{}]*)\}`)
	docSched  = regexp.MustCompile(`\bsched\.([A-Z]\w*)`)
)

// schedNames parses internal/sched and returns its package-level names:
// functions, types, constants, variables — test files included, since
// the documents cite tests as sched.TestXxx.
func schedNames(t *testing.T) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/sched", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	declare := func(d ast.Decl) {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				declare(d)
			}
		}
	}
	return names
}

// expandBraces turns cmd/{a,b} into cmd/a and cmd/b.
func expandBraces(s string) []string {
	m := docBraces.FindStringSubmatchIndex(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[m[2]:m[3]], ",") {
		out = append(out, expandBraces(s[:m[0]]+alt+s[m[1]:])...)
	}
	return out
}

// TestDocsNameWhatExists is `make docs-check`: every code-formatted
// `make <target>`, cmd/<name>, internal/<pkg> and bench/<file> in the
// checked documents must name a Makefile target, directory or file of
// this tree, and every code-formatted sched.<Exported> a package-level
// name internal/sched declares. Prose ("make the ...") is not
// code-formatted and is not read; neither are patterns such as
// bench/BENCH_<n>.json.
func TestDocsNameWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range docTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	declared := schedNames(t)
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		stale := func(off int, what string) {
			t.Errorf("%s:%d: %s", doc, 1+strings.Count(text[:off], "\n"), what)
		}
		for _, span := range docCode.FindAllStringIndex(text, -1) {
			code := text[span[0]:span[1]]
			for _, m := range docPath.FindAllStringSubmatchIndex(code, -1) {
				for _, p := range expandBraces(code[m[2]:m[3]]) {
					if strings.ContainsAny(p, "<*") {
						continue // a pattern, not a name
					}
					if _, err := os.Stat(p); err != nil {
						stale(span[0]+m[2], p+" does not exist")
					}
				}
			}
			for _, m := range docMake.FindAllStringSubmatchIndex(code, -1) {
				for _, w := range strings.Fields(code[m[2]:m[3]]) {
					if strings.Contains(w, "=") || strings.HasPrefix(w, "-") {
						continue // VAR=value, -j
					}
					if !targets[w] {
						stale(span[0]+m[2], "make "+w+": no such target")
					}
				}
			}
			for _, m := range docSched.FindAllStringSubmatchIndex(code, -1) {
				if name := code[m[2]:m[3]]; !declared[name] {
					stale(span[0]+m[0], "sched."+name+" is not declared in internal/sched")
				}
			}
		}
	}
}
