package lint_test

import (
	"go/ast"
	"go/token"
	"testing"

	"repro/internal/lint"
)

func directiveGroup(lines ...string) *ast.CommentGroup {
	cg := &ast.CommentGroup{}
	for _, l := range lines {
		cg.List = append(cg.List, &ast.Comment{Slash: token.Pos(1), Text: l})
	}
	return cg
}

// TestHasDirective pins the full-word rule: a directive must not match a
// longer directive that shares its prefix, and trailing commentary after
// whitespace is fine.
func TestHasDirective(t *testing.T) {
	cases := []struct {
		lines []string
		want  bool
	}{
		{[]string{"// Step fires events.", "//simlint:hotpath"}, true},
		{[]string{"//simlint:hotpath because benchmarks pin it"}, true},
		{[]string{"//simlint:hotpathx"}, false},
		{[]string{"// simlint:hotpath"}, false}, // directives take no space after //
		{[]string{"// plain doc comment"}, false},
	}
	for _, c := range cases {
		got := lint.HasDirective(directiveGroup(c.lines...), lint.HotPathDirective)
		if got != c.want {
			t.Errorf("HasDirective(%q) = %v, want %v", c.lines, got, c.want)
		}
	}
	if lint.HasDirective(nil, lint.HotPathDirective) {
		t.Errorf("HasDirective(nil) must be false")
	}
}
