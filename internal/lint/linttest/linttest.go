// Package linttest runs lint analyzers over testdata packages and
// compares their diagnostics against `// want "regexp"` expectations, in
// the style of golang.org/x/tools' analysistest (re-implemented on the
// standard library; this module vendors nothing).
//
// Run checks one per-unit analyzer against one testdata package. RunTree
// checks any mix of per-unit and module analyzers against a multi-package
// testdata tree — every package directory under the tree root is loaded
// into one shared load set, so module analyzers see cross-package call
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

// Run loads dir as a package and checks analyzer a against its want
// comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	root, modPath, err := lint.FindModule(".")
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	loader := lint.NewLoader(root, modPath)
	units, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", dir, err)
	}
	if len(units) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	var diags []lint.Diagnostic
	for _, unit := range units {
		ds, err := lint.RunAnalyzers(unit, a)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		diags = append(diags, ds...)
	}
	match(t, units, diags)
}

// RunTree loads every package directory under root into one shared load
// set, runs the given per-unit and module analyzers, applies global
// suppression, and checks the combined diagnostics against the tree's
// want comments.
func RunTree(t *testing.T, root string, unitAnalyzers []*lint.Analyzer, moduleAnalyzers []*lint.ModuleAnalyzer) {
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

	var diags []lint.Diagnostic
	for _, unit := range units {
		ds, err := lint.RunUnitAnalyzers(unit, unitAnalyzers...)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		diags = append(diags, ds...)
	}
	if len(moduleAnalyzers) > 0 {
		ds, err := lint.RunModuleAnalyzers(units, moduleAnalyzers...)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		diags = append(diags, ds...)
	}
	match(t, units, lint.Suppress(units, diags))
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
