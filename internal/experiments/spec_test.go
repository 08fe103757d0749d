package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// renderSuite renders the entire registry to every on-disk byte: the
// result text plus each table and figure CSV, in presentation order.
func renderSuite(t *testing.T, opts Options) string {
	t.Helper()
	results, _, err := RunMany(IDs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.String())
		for _, tb := range r.Tables {
			b.WriteString(tb.CSV())
		}
		for _, f := range r.Figures {
			b.WriteString(f.Table().CSV())
		}
	}
	return b.String()
}

// TestSpecGoldenEquivalence pins the declarative-spec migration to the
// hand-coded implementation it replaced: the full quick suite must render
// byte-identical to the committed seed output, sequentially and across
// the worker pool.
func TestSpecGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite render in -short mode")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		// Regeneration path for deliberate output changes (new systems or
		// specs in the registry): UPDATE_GOLDEN=1 go test -run SpecGolden.
		// The fresh golden still must render byte-identically across
		// worker-pool widths below.
		if err := os.WriteFile("testdata/golden_quick.txt",
			[]byte(renderSuite(t, Options{Quick: true, Parallel: 1})), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	for _, par := range []int{1, 8} {
		got := renderSuite(t, Options{Quick: true, Parallel: par})
		if got != golden {
			t.Fatalf("parallel=%d rendering diverged from seed golden:\n%s",
				par, firstDiff(golden, got))
		}
	}
}

// firstDiff locates the first byte where two renderings diverge and
// returns the surrounding context of both.
func firstDiff(want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hiW, hiG := i+200, i+200
	if hiW > len(want) {
		hiW = len(want)
	}
	if hiG > len(got) {
		hiG = len(got)
	}
	return fmt.Sprintf("first difference at byte %d (want %d bytes, got %d)\n--- want ---\n%s\n--- got ---\n%s",
		i, len(want), len(got), want[lo:hiW], got[lo:hiG])
}

// TestTitleUnknownID pins the satellite fix: Title reports unknown IDs
// instead of silently returning "".
func TestTitleUnknownID(t *testing.T) {
	if title, ok := Title("F99"); ok || title != "" {
		t.Fatalf("Title(F99) = %q, %v; want \"\", false", title, ok)
	}
	if title, ok := Title(""); ok || title != "" {
		t.Fatalf("Title(\"\") = %q, %v; want \"\", false", title, ok)
	}
	title, ok := Title("F1")
	if !ok || title != "Optimizer-step latency per system" {
		t.Fatalf("Title(F1) = %q, %v", title, ok)
	}
}

// TestQuickSuiteAudited runs every experiment of the quick suite with
// invariant auditing on: each simulated report passes through runSystem's
// audit, the run path every spec shares.
func TestQuickSuiteAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run in -short mode")
	}
	if _, _, err := RunMany(IDs(), Options{Quick: true, CheckInvariants: true}); err != nil {
		t.Fatal(err)
	}
}
