// Package callgraph builds a conservative whole-module call graph from
// the lint Loader's compilation units. It is the interprocedural layer
// under the hotalloc analyzer: a `//simlint:hotpath` contract is only
// checkable if every function a hot root can reach is known.
//
// Resolution is deliberately conservative:
//
//   - Static calls (package functions, concrete methods) produce exact
//     edges. Because the Loader typechecks a package once as a unit and
//     again as an import copy for its dependents, objects cannot be
//     compared by pointer across packages; nodes are therefore keyed by
//     the canonical types.Func.FullName string, which is identical in
//     every type-checker universe.
//   - Calls through an interface method produce edges to every module
//     method with the same name and parameter count. Checking
//     types.Implements across universes is impossible (named-type
//     identity is object identity), so the over-approximation by
//     name+arity is the sound choice: it may add edges, never drop one.
//   - Calls through function values (fields, parameters, locals) resolve
//     to nothing: a function value is a sink. The discipline this
//     implies — the allocation behaviour of a callback is its creator's
//     responsibility, at creation site — is exactly the kernel's
//     contract, where hot paths invoke pooled package-level functions
//     and closures are flagged where they are built.
package callgraph

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Node is one function declared in the module.
type Node struct {
	// Key is the canonical identity: types.Func.FullName of the
	// declaration (generic origin, for instantiated calls).
	Key  string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Unit *lint.Unit
	// Test marks functions declared in _test.go files or test-only
	// (xtest) units; analyses of production contracts skip them.
	Test bool
	// Out lists call edges in source order.
	Out []Edge
}

// Edge is one call site resolved to a module function.
type Edge struct {
	Site *ast.CallExpr
	To   *Node
	// ViaInterface marks a name+arity interface-dispatch edge (an
	// over-approximation) as opposed to an exact static edge.
	ViaInterface bool
}

// Graph is the module call graph.
type Graph struct {
	// Nodes indexes every declared function by canonical key.
	Nodes map[string]*Node
	// order preserves deterministic iteration.
	order []*Node
}

// All returns every node in deterministic (load, then source) order.
func (g *Graph) All() []*Node { return g.order }

// Lookup returns the node for a types.Func from any universe, or nil.
func (g *Graph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn.Origin().FullName()]
}

// Build constructs the call graph over the given units.
func Build(units []*lint.Unit) *Graph {
	g := &Graph{Nodes: map[string]*Node{}}

	// Pass 1: declare nodes. Units include in-package test files; a
	// function is a test function if its file is a _test.go file.
	for _, unit := range units {
		xtest := isXTest(unit)
		for _, f := range unit.Files {
			testFile := xtest || isTestFile(unit, f)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := unit.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := fn.FullName()
				if _, dup := g.Nodes[key]; dup {
					continue
				}
				n := &Node{Key: key, Fn: fn, Decl: fd, Unit: unit, Test: testFile}
				g.Nodes[key] = n
				g.order = append(g.order, n)
			}
		}
	}

	// Interface-dispatch index: method name → candidate nodes by
	// parameter count.
	methods := map[string][]*Node{}
	for _, n := range g.order {
		if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			methods[n.Fn.Name()] = append(methods[n.Fn.Name()], n)
		}
	}

	// Pass 2: edges.
	for _, n := range g.order {
		info := n.Unit.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(info, call)
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
					want := sig.Params().Len()
					for _, cand := range methods[fn.Name()] {
						cs, _ := cand.Fn.Type().(*types.Signature)
						if cs != nil && cs.Params().Len() == want {
							n.Out = append(n.Out, Edge{Site: call, To: cand, ViaInterface: true})
						}
					}
					return true
				}
			}
			if to := g.Nodes[fn.FullName()]; to != nil {
				n.Out = append(n.Out, Edge{Site: call, To: to})
			}
			return true
		})
	}
	return g
}

// calleeOf resolves the object a call expression statically invokes.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

func isXTest(u *lint.Unit) bool {
	return strings.HasSuffix(u.ImportPath, " [xtest]")
}

func isTestFile(u *lint.Unit, f *ast.File) bool {
	return strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go")
}
