// Command simlint is the repository's static-analysis multichecker:
// verify tier 3. Each analyzer runs once over the whole load set, and
// its findings survive only inside the packages where its rule is policy:
//
//	nondeterminism  wall-clock reads, global math/rand, map-order iteration
//	unitconv        raw scale-factor literals outside internal/units
//	floateq         exact float ==/!= in tests outside approx helpers
//	simtime         bare sim.Time(x) conversions without a named constructor
//	tracesink       fmt stream writes that would bypass the trace sink
//	hotalloc        allocations reachable from //simlint:hotpath functions
//	poolsafe        use-after-release of //simlint:pooled handles
//	globalstate     writes to mutable package-level state
//	unused          functions no main, init or package initializer reaches
//
// Findings are suppressed line-by-line with `//simlint:allow <check>
// [reason]` placed on, or directly above, the offending line; a directive
// that suppresses nothing is itself a finding (unusedallow).
//
// Usage:
//
//	simlint [packages]     # default ./...
//	simlint -json          # one JSON object per finding, one per line
//	simlint -list          # print analyzers and their scopes
//
// Exit status: 0 when no diagnostic survives suppression, 1 when at
// least one does, 2 when any package fails to load or typecheck. CI and
// wrapper scripts rely on this contract; -json does not change it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/checks"
)

// scope limits an analyzer's *findings* by position: the analyzer always
// sees the whole load set (hotalloc's call chains may cross any
// boundary), but only findings anchored inside the scope survive.
type scope struct {
	analyzer *lint.Analyzer
	include  func(rel string) bool
	describe string
}

// scopes is the tier-3 policy. Paths are module-relative.
//
//   - nondeterminism governs every package that feeds simulator output
//     (all of internal/ and cmd/); examples are interactive demos and may
//     print wall-clock timings.
//   - unitconv and simtime govern everything outside the packages that
//     define the units (internal/units and the sim kernel itself, whose
//     Time type the constructors wrap). That includes internal/lint: the
//     linter obeys its own rules.
//   - floateq governs every test in the module.
//   - tracesink governs the packages that record and serialize event
//     traces; their output must stay byte-stable, so trace bytes go
//     through internal/tracing's strconv-append sink, never fmt streams.
//   - hotalloc and poolsafe are driven entirely by annotations
//     (//simlint:hotpath, //simlint:pooled); they apply module-wide.
//   - globalstate governs the sim-adjacent packages (internal/ and
//     cmd/), where shared mutable state couples simulations.
//   - unused governs everything but wallbench/, a module of its own whose
//     code changes only with the benchmark; its main still counts as a
//     root, so what the benchmark calls stays live.
var scopes = []scope{
	{checks.Nondeterminism, underAny("internal", "cmd"), "internal/..., cmd/..."},
	{checks.UnitConv, not(underAny("internal/units")), "all but internal/units"},
	{checks.FloatEq, all, "all tests"},
	{checks.SimTime, not(underAny("internal/sim", "internal/units")), "all but internal/sim, internal/units"},
	{checks.TraceSink, underAny("internal/tracing"), "internal/tracing"},
	{checks.HotAlloc, all, "whole module (annotation-driven)"},
	{checks.PoolSafe, all, "whole module (annotation-driven)"},
	{checks.GlobalState, underAny("internal", "cmd"), "internal/..., cmd/..."},
	{checks.Unused, underAny("internal", "cmd", "examples"), "internal/..., cmd/..., examples/..."},
}

func all(string) bool { return true }

func underAny(prefixes ...string) func(string) bool {
	return func(rel string) bool {
		for _, p := range prefixes {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				return true
			}
		}
		return false
	}
}

func not(f func(string) bool) func(string) bool {
	return func(rel string) bool { return !f(rel) }
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [-list] [packages]\n\nAnalyzers:\n")
		for _, s := range scopes {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n                   scope: %s\n",
				s.analyzer.Name, s.analyzer.Doc, s.describe)
		}
	}
	flag.Parse()
	if *list {
		flag.Usage()
		return
	}
	os.Exit(run(flag.Args(), *asJSON))
}

// finding is the -json output shape. The field order is part of the
// interface: encoding/json emits struct fields in declaration order, so
// consumers can diff artifact files across runs.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

func run(patterns []string, asJSON bool) int {
	root, modPath, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	loader := lint.NewLoader(root, modPath)
	failed := false
	var units []*lint.Unit
	for _, dir := range dirs {
		us, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			failed = true
			continue
		}
		units = append(units, us...)
	}

	// Findings outside an analyzer's scope are dropped before the one
	// suppression pass, so an allow beside a dropped finding is stale and
	// an allow that any in-scope finding uses is not.
	var raw []lint.Diagnostic
	for _, s := range scopes {
		for _, d := range lint.Run(units, s.analyzer) {
			pos := units[0].Fset.Position(d.Pos)
			if s.include(relPath(root, filepath.Dir(pos.Filename))) {
				raw = append(raw, d)
			}
		}
	}

	found := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range lint.Suppress(units, raw) {
		pos := units[0].Fset.Position(d.Pos)
		if asJSON {
			enc.Encode(finding{
				File:     relPath(root, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Category: d.Category,
				Message:  d.Message,
			})
		} else {
			fmt.Printf("%s:%d:%d: %s [%s]\n",
				relPath(root, pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
		}
		found++
	}
	switch {
	case failed:
		return 2
	case found > 0:
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// expand resolves package patterns to directories, each against the
// working directory, as go vet does. Supported: "./...", "dir/...",
// plain directories.
func expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, p := range patterns {
		var batch []string
		var err error
		switch {
		case p == "./..." || p == "...":
			batch, err = lint.PackageDirs(".")
		case strings.HasSuffix(p, "/..."):
			batch, err = lint.PackageDirs(strings.TrimSuffix(p, "/..."))
		default:
			batch = []string{p}
		}
		if err != nil {
			return nil, err
		}
		for _, d := range batch {
			abs, err := filepath.Abs(d)
			if err != nil {
				return nil, err
			}
			if !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}
	return dirs, nil
}

// relPath renders a path module-relative for stable, clickable output.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
