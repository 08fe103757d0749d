package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/callgraph"
)

// HotAlloc statically enforces the kernel's zero-allocation contract:
// a function annotated `//simlint:hotpath` must not reach any allocating
// construct through any call-graph path. The alloc-pinning tests
// (TestScheduleSteadyStateZeroAllocs and friends) check this dynamically
// for the few call shapes they exercise; this analyzer checks it for
// every path, every commit.
//
// Allocating constructs: escaping composite literals (&T{...}, slice and
// map literals), make/new, append (may grow), func literals (closures),
// map writes, string concatenation, string<->[]byte conversions, calls
// into fmt, and arguments boxed into interface parameters. Calls through
// function values are sinks — a callback's allocation behaviour is
// flagged where the callback is built, not where it is invoked — and
// calls through interfaces follow every module method of matching
// name+arity (conservative; see internal/lint/callgraph).
//
// Deliberate exceptions carry `//simlint:allow hotalloc <reason>`: the
// kernel's amortized freelist/queue growth and its panic paths are the
// expected ones.
//
// Category: hotalloc.
var HotAlloc = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocating constructs reachable from //simlint:hotpath functions " +
		"through the whole-module call graph, printing the offending call chain",
	Run: runHotAlloc,
}

func runHotAlloc(pass *lint.Pass) {
	g := callgraph.Build(pass.Units)

	// Multi-source BFS from every annotated root, recording parents so
	// each diagnostic can print a (shortest) chain from a root.
	parent := map[*callgraph.Node]*callgraph.Node{}
	var queue []*callgraph.Node
	for _, n := range g.All() {
		if n.Test {
			continue
		}
		if lint.HasDirective(n.Decl.Doc, lint.HotPathDirective) {
			if _, seen := parent[n]; !seen {
				parent[n] = nil
				queue = append(queue, n)
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		for _, e := range n.Out {
			if e.To.Test {
				continue
			}
			if _, seen := parent[e.To]; seen {
				continue
			}
			parent[e.To] = n
			queue = append(queue, e.To)
		}
	}
	for _, n := range queue {
		scanAllocs(pass, n, hotChain(parent, n))
	}
}

// hotChain renders the call chain from the nearest annotated root to n.
func hotChain(parent map[*callgraph.Node]*callgraph.Node, n *callgraph.Node) string {
	var names []string
	for at := n; at != nil; at = parent[at] {
		names = append(names, funcDisplayName(at.Decl))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// funcDisplayName renders a function for chain output: Name for package
// functions, (Recv).Name for methods.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteByte('(')
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteByte('*')
		t = star.X
	}
	// A generic receiver, T[P] or T[P, Q], shows its type name.
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		b.WriteString(id.Name)
	}
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// scanAllocs reports every allocating construct in n's body.
func scanAllocs(pass *lint.Pass, n *callgraph.Node, chain string) {
	info := n.Unit.Info
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "hotalloc",
			"hot-path allocation: %s (hot chain: %s)", what, chain)
	}
	inAddrOf := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			report(node.Pos(), "func literal allocates a closure")
			// The literal's body executes through a dynamic edge, off
			// this hot path; creating it is the finding.
			return false

		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if cl, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "composite literal escapes to the heap (&T{...})")
					inAddrOf[cl] = true
				}
			}

		case *ast.CompositeLit:
			if inAddrOf[node] {
				return true
			}
			if t := typeOf(info, node); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(node.Pos(), "slice literal allocates")
				case *types.Map:
					report(node.Pos(), "map literal allocates")
				}
			}

		case *ast.CallExpr:
			scanCall(info, node, report)

		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(typeOf(info, node.X)) {
				report(node.Pos(), "string concatenation allocates")
			}

		case *ast.AssignStmt:
			for _, l := range node.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if t := typeOf(info, ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							report(ix.Pos(), "map write may allocate")
						}
					}
				}
			}
		}
		return true
	})
}

// scanCall reports allocating calls: builtins, fmt, allocating
// conversions, and interface-boxed arguments of static calls.
func scanCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow the backing array")
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(info, call.Args[0])
		if to != nil && from != nil {
			toStr, fromStr := isStringType(to), isStringType(from)
			_, toSlice := to.Underlying().(*types.Slice)
			_, fromSlice := from.Underlying().(*types.Slice)
			if (toStr && fromSlice) || (toSlice && fromStr) {
				report(call.Pos(), "string/slice conversion copies its operand")
			}
		}
		return
	}
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if pkgPathOf(fn) == "fmt" {
		report(call.Pos(), fmt.Sprintf("fmt.%s allocates", fn.Name()))
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through, no boxing
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		at := typeOf(info, arg)
		if at == nil || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "argument boxed into interface parameter")
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether boxing a value of type t into an
// interface stores the value inline (no heap copy): pointers, channels,
// maps, funcs, unsafe pointers, interfaces, and nil.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
