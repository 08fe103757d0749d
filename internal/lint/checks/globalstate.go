package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// GlobalState flags writes to mutable package-level state from ordinary
// functions. The sim kernel is deliberately instance-scoped — every
// Engine, Resource, and Trace owns its state — so a package-level
// variable written at runtime is either a latent data race under
// parallel tests (the linter's own regexp cache was one) or hidden coupling
// between simulations. Writes from init functions and package-level
// initializers are configuration, not shared mutable state, and test
// files are skipped.
//
// Registry-style variables that are mutated once during setup keep an
// explicit `//simlint:allow globalstate <reason>` at the write site.
//
// The one store simulations share is a shelf (sim.Shelf): one package
// variable each for finished engines, devices and core rigs, which a
// later constructor takes back with its record storage. The analyzer
// needs no allow for them, since Take and Give are method calls, not
// writes, and the shelf's mutex keeps them race-free. They cannot
// couple runs: an owner is reset when it is given back, so the one a
// constructor takes equals a new one bit for bit except for where its
// record slabs sit in memory, and no simulated figure depends on that.
//
// Category: globalstate.
var GlobalState = &lint.Analyzer{
	Name: "globalstate",
	Doc: "flags assignments, index stores, and inc/dec of package-level variables " +
		"from non-init functions in non-test files",
	Run: runGlobalState,
}

func runGlobalState(pass *lint.Pass) {
	for _, u := range pass.Units {
		if strings.HasSuffix(u.ImportPath, " [xtest]") {
			continue
		}
		for _, f := range u.Files {
			if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				scanGlobalWrites(pass, u, fd)
			}
		}
	}
}

func scanGlobalWrites(pass *lint.Pass, u *lint.Unit, fd *ast.FuncDecl) {
	info := u.Info
	flag := func(root *ast.Ident, pos ast.Node, what string) {
		v, ok := info.Uses[root].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return
		}
		pass.Reportf(pos.Pos(), "globalstate",
			"%s of package-level %s from %s; sim state must be instance-scoped",
			what, root.Name, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if root := lhsRootIdent(l); root != nil {
					flag(root, n, "write")
				}
			}
		case *ast.IncDecStmt:
			if root := lhsRootIdent(n.X); root != nil {
				flag(root, n, "increment")
			}
		case *ast.CallExpr:
			// append(global, ...) assigned back is caught via AssignStmt;
			// in-place mutators like delete(global, k) are index stores.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(n.Args) > 0 {
					if root := lhsRootIdent(n.Args[0]); root != nil {
						flag(root, n, "delete")
					}
				}
			}
		}
		return true
	})
}
