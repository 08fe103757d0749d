package search

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
)

// goldenRuns are the searches TestSearchResultGolden pins: the tune
// workload's four bases over the default space.
func goldenRuns() []struct {
	name  string
	base  core.Config
	space Space
} {
	type run = struct {
		name  string
		base  core.Config
		space Space
	}
	var runs []run
	for _, m := range []dnn.Model{dnn.GPT6B7(), dnn.Llama7B(), dnn.GPT13B(), dnn.GPT30B()} {
		cfg := core.DefaultConfig(m)
		cfg.MaxSimUnits = 256
		runs = append(runs, run{"default/" + m.Name, cfg, DefaultSpace()})
	}
	return runs
}

// renderResult prints everything a search returns: its statistics, every
// evaluated point in evaluation order, the frontier and its CSV.
func renderResult(name string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\nstats %+v\n", name, res.Stats)
	for _, p := range res.Evaluated {
		fmt.Fprintf(&b, "evaluated %+v\n", p)
	}
	for _, p := range res.Frontier {
		fmt.Fprintf(&b, "frontier %+v\n", p)
	}
	b.WriteString(res.CSV())
	return b.String()
}

// TestSearchResultGolden pins the whole result of a search, not only its
// frontier: the statistics, every simulated point with its full config,
// hash, bounds and objectives, and the CSV. A change to how the grid is
// enumerated, priced, memoized or admitted must leave it byte-identical.
// Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestSearchResultGolden ./internal/search/.
func TestSearchResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four default-space searches in -short mode")
	}
	var b strings.Builder
	for _, r := range goldenRuns() {
		res, err := Run(r.base, r.space, Options{Budget: 16, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		b.WriteString(renderResult(r.name, res))
	}
	got := b.String()

	const path = "testdata/search_result.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("search result diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search result is %d lines, want %d", len(gl), len(wl))
	}
}
