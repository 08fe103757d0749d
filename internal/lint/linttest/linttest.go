// Package linttest runs lint analyzers over testdata packages and
// compares their diagnostics against `// want "regexp"` expectations, in
// the style of golang.org/x/tools' analysistest (re-implemented on the
// standard library; this module vendors nothing).
//
// Run checks analyzers against a testdata tree: every package directory
// under the tree root (a single package directory is a tree of one) is
// loaded into one shared load set, so analyzers see cross-package call
// chains exactly as cmd/simlint would.
//
// Each want comment anchors to its own source line and may carry several
// quoted regexps. Every emitted diagnostic must match exactly one unused
// want on its line, and every want must be consumed. Suppression
// directives (//simlint:allow) are honoured before matching, so the
// directive machinery itself is testable: an allowed finding simply needs
// no want.
package linttest

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Run loads every package directory under root into one load set, runs
// the analyzers over it, applies suppression, and checks the diagnostics
// against the tree's want comments.
//
//simlint:allow unused the analyzer test harness: the checks tests call it
func Run(t *testing.T, root string, analyzers ...*lint.Analyzer) {
	t.Helper()
	modRoot, modPath, err := lint.FindModule(".")
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	dirs, err := lint.PackageDirs(root)
	if err != nil {
		t.Fatalf("linttest: walk %s: %v", root, err)
	}
	loader := lint.NewLoader(modRoot, modPath)
	var units []*lint.Unit
	for _, dir := range dirs {
		us, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("linttest: load %s: %v", dir, err)
		}
		units = append(units, us...)
	}
	if len(units) == 0 {
		t.Fatalf("linttest: no Go files under %s", root)
	}
	match(t, units, lint.Suppress(units, lint.Run(units, analyzers...)))
}

// match checks diagnostics against the units' want comments.
func match(t *testing.T, units []*lint.Unit, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, unit := range units {
		wants = append(wants, collectWants(t, unit)...)
	}
	for _, d := range diags {
		pos := units[0].Fset.Position(d.Pos)
		if w := claim(wants, pos.Filename, pos.Line, d.Message); w == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks and returns the first unused want matching the diagnostic.
func claim(wants []*want, file string, line int, message string) *want {
	for _, w := range wants {
		if !w.used && w.file == file && w.line == line && w.re.MatchString(message) {
			w.used = true
			return w
		}
	}
	return nil
}

// collectWants parses the unit's `// want` comments.
func collectWants(t *testing.T, unit *lint.Unit) []*want {
	t.Helper()
	var wants []*want
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				quoted := quotedRE.FindAllString(m[1], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
