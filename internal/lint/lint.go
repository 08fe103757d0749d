// Package lint is a minimal go/analysis-style static-analysis framework
// built on the standard library's go/ast and go/types. It exists because
// this repository vendors no third-party modules: the x/tools analysis
// machinery is re-derived here at the scale the simulator needs — typed
// packages, per-analyzer diagnostics, `//simlint:allow` suppression, and
// an analysistest-style harness (see the linttest subpackage).
//
// There is one pass kind: an Analyzer runs once over every loaded unit
// and loops over the units itself. That is what lets the flow-aware
// checks (hot-path allocation reachability, pooled handle lifetimes)
// follow calls across package boundaries, and a check of one package at
// a time is the same loop without the cross-unit state. The shipped
// analyzers live in internal/lint/checks; the cmd/simlint multichecker
// wires them over ./... as verify tier 3.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one static check. It runs once over the whole
// load set and visits the units it needs itself, so a check whose call
// chains cross package boundaries and a check of one package at a time
// have the same shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description, shown by `simlint -help`.
	Doc string
	// Run inspects pass.Units and reports findings via pass.Report /
	// pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries every loaded unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Units is every loaded compilation unit, in load order. All units
	// share Fset, so positions from any unit compose.
	Units []*Unit

	diags *[]Diagnostic
}

// Report records a finding under the given category.
func (p *Pass) Report(pos token.Pos, category, message string) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  message,
	})
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(pos, category, fmt.Sprintf(format, args...))
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos token.Pos
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Category is the sub-check within the analyzer (e.g. the
	// nondeterminism analyzer reports wallclock, globalrand and maporder
	// categories). Allow directives match either the category or the
	// analyzer name.
	Category string
	Message  string
}

// AllowDirective is the magic comment that suppresses findings:
//
//	//simlint:allow <name>[,<name>...] [reason...]
//
// where each <name> is an analyzer name, a category, or "all". The
// directive applies to diagnostics on its own line and on the line
// immediately below it — so it can sit at the end of the offending line
// or on its own comment line directly above it. A reason after the names
// is encouraged and ignored by the tool.
//
// A directive that suppresses nothing is itself reported (category
// unusedallow), so stale suppressions cannot accumulate as the code
// under them changes.
const AllowDirective = "simlint:allow"

// Annotation directives recognized on declarations. Unlike AllowDirective
// they are contracts, not suppressions: they opt a declaration into an
// analyzer's rules.
//
//	//simlint:hotpath  (func) — the function and everything it reaches
//	                   through the call graph must not allocate (hotalloc)
//	//simlint:pooled   (type) — values of this type recycle through a
//	                   freelist; the handle contract applies (poolsafe)
//	//simlint:release  (func) — calling this returns its pooled argument
//	                   (or receiver) to the freelist; the handle dies here
const (
	HotPathDirective = "simlint:hotpath"
	PooledDirective  = "simlint:pooled"
	ReleaseDirective = "simlint:release"
)

// HasDirective reports whether the comment group carries the given
// directive (comparing the full word: "simlint:hotpath" does not match
// "simlint:hotpathx").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+directive)
		if ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
			return true
		}
	}
	return false
}

// allowKey identifies one suppressed (file line, check name) pair.
type allowKey struct {
	file string
	line int
	name string
}

// allowDirective is one parsed name of one allow comment, tracked so
// directives that suppress nothing can be reported as stale.
type allowDirective struct {
	pos  token.Pos
	name string
	used bool
}

// allowSet indexes every allow directive in a unit.
type allowSet struct {
	index map[allowKey][]*allowDirective
	list  []*allowDirective
}

// collectAllows scans the unit's comments for allow directives.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	allows := &allowSet{index: map[allowKey][]*allowDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+AllowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(strings.TrimSpace(text))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					d := &allowDirective{pos: c.Pos(), name: name}
					allows.list = append(allows.list, d)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := allowKey{pos.Filename, line, name}
						allows.index[k] = append(allows.index[k], d)
					}
				}
			}
		}
	}
	return allows
}

// suppressed reports whether d is covered by an allow directive, marking
// any covering directives as used.
func (a *allowSet) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	ok := false
	for _, name := range []string{d.Category, d.Analyzer, "all"} {
		for _, dir := range a.index[allowKey{pos.Filename, pos.Line, name}] {
			dir.used = true
			ok = true
		}
	}
	return ok
}

// unused returns a diagnostic for each directive that suppressed nothing:
// a stale allow hides future regressions at its line, so it must go.
func (a *allowSet) unused() []Diagnostic {
	var diags []Diagnostic
	for _, d := range a.list {
		if !d.used {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "simlint",
				Category: "unusedallow",
				Message: fmt.Sprintf("//%s %s suppresses nothing here; remove the stale directive",
					AllowDirective, d.name),
			})
		}
	}
	return diags
}

// Run applies each analyzer once over the units and returns the raw
// diagnostics in analyzer order, before any //simlint:allow suppression.
// The units must share one FileSet (which the Loader guarantees).
func Run(units []*Unit, analyzers ...*Analyzer) []Diagnostic {
	if len(units) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: units[0].Fset, Units: units, diags: &diags})
	}
	return diags
}

// Suppress filters diags through every //simlint:allow directive found in
// the units' files, appends a stale-directive (unusedallow) diagnostic for
// each directive that suppressed nothing, and returns the survivors in
// position order. It must see all diagnostics of a run at once: a
// directive that one analyzer uses would otherwise be reported stale
// beside the findings of another.
func Suppress(units []*Unit, diags []Diagnostic) []Diagnostic {
	if len(units) == 0 {
		return diags
	}
	fset := units[0].Fset
	var files []*ast.File
	for _, u := range units {
		files = append(files, u.Files...)
	}
	allows := collectAllows(fset, files)
	var kept []Diagnostic
	for _, d := range diags {
		if !allows.suppressed(fset, d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, allows.unused()...)
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept
}
