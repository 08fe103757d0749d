package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/flow"
)

// PoolSafe is the flow-sensitive use-after-release detector for pooled
// kernel objects. Types annotated `//simlint:pooled` (sim.Event, the
// Resource use-request, the Preemptible op, the SSD op record) recycle
// through freelists; functions annotated `//simlint:release` return
// their pooled argument (or receiver) to the pool, after which the handle
// is dead — DESIGN.md §9's handle contract. Any read, field write, call argument, or return
// of a handle on a control-flow path after its release call is a
// finding, as is releasing the same handle twice, or storing a pooled
// pointer into a package-level variable (which outlives every handle).
//
// The analysis is intraprocedural over internal/lint/flow CFGs and
// tracks local variables and parameters; reassigning a tracked variable
// (from a pool get, or to nil) ends its released state. Functions using
// goto are skipped rather than analyzed on incomplete paths.
//
// Categories: useafterrelease, doublerelease, poolescape.
var PoolSafe = &lint.ModuleAnalyzer{
	Name: "poolsafe",
	Doc: "flags use-after-release, double-release, and package-level escapes of " +
		"pooled (//simlint:pooled) objects along control-flow paths",
	Run: runPoolSafe,
}

// releaseFunc describes one //simlint:release function: which argument
// carries the handle. Param -1 means the receiver.
type releaseFunc struct {
	param int
}

// poolModel is the module-wide pooled-type and release-function index,
// keyed by canonical type / function strings so cross-package
// type-checker universes agree.
type poolModel struct {
	pooled   map[string]bool        // types.TypeString of the *named* type
	releases map[string]releaseFunc // types.Func.FullName
}

func buildPoolModel(units []*lint.Unit) *poolModel {
	m := &poolModel{pooled: map[string]bool{}, releases: map[string]releaseFunc{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if !lint.HasDirective(ts.Doc, lint.PooledDirective) &&
							!(len(d.Specs) == 1 && lint.HasDirective(d.Doc, lint.PooledDirective)) {
							continue
						}
						if obj, ok := u.Info.Defs[ts.Name].(*types.TypeName); ok {
							m.pooled[types.TypeString(obj.Type(), nil)] = true
						}
					}
				case *ast.FuncDecl:
					if !lint.HasDirective(d.Doc, lint.ReleaseDirective) {
						continue
					}
					fn, ok := u.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					m.releases[fn.FullName()] = releaseFunc{param: releaseParam(m, fn)}
				}
			}
		}
	}
	return m
}

// releaseParam finds which parameter of a release function carries the
// pooled handle: the receiver if pooled, else the first pooled-typed
// parameter.
func releaseParam(m *poolModel, fn *types.Func) int {
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && m.isPooledPtr(r.Type()) {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if m.isPooledPtr(sig.Params().At(i).Type()) {
			return i
		}
	}
	return 0
}

// isPooledPtr reports whether t is a pointer to an annotated pooled type
// (from any type-checker universe).
func (m *poolModel) isPooledPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return m.pooled[types.TypeString(p.Elem(), nil)]
}

// sharedPoolKey memoizes the model across module analyzers in one run.
const sharedPoolKey = "poolmodel"

func poolModelOf(pass *lint.ModulePass) *poolModel {
	if m, ok := pass.Shared[sharedPoolKey].(*poolModel); ok {
		return m
	}
	m := buildPoolModel(pass.Units)
	pass.Shared[sharedPoolKey] = m
	return m
}

func runPoolSafe(pass *lint.ModulePass) error {
	model := poolModelOf(pass)
	if len(model.pooled) == 0 {
		return nil
	}
	for _, u := range pass.Units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// The release functions themselves legitimately touch the
				// handle on its way into the pool.
				if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
					if _, isRelease := model.releases[fn.FullName()]; isRelease {
						continue
					}
				}
				analyzeFunc(pass, model, u, fd)
			}
		}
	}
	return nil
}

// releasedArg returns the local variable a call releases, or nil.
func (m *poolModel) releasedArg(info *types.Info, call *ast.CallExpr) (types.Object, token.Pos) {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, token.NoPos
	}
	rf, ok := m.releases[fn.Origin().FullName()]
	if !ok {
		return nil, token.NoPos
	}
	var expr ast.Expr
	if rf.param == -1 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, token.NoPos
		}
		expr = sel.X
	} else if rf.param < len(call.Args) {
		expr = call.Args[rf.param]
	}
	if expr == nil {
		return nil, token.NoPos
	}
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() != v.Pkg().Scope() {
			return v, call.Pos()
		}
	}
	return nil, token.NoPos
}

func analyzeFunc(pass *lint.ModulePass, model *poolModel, u *lint.Unit, fd *ast.FuncDecl) {
	info := u.Info
	// Cheap pre-scan: skip functions with no release call and no
	// package-level store of a pooled pointer.
	hasRelease := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v, _ := model.releasedArg(info, call); v != nil {
				hasRelease = true
			}
		}
		return !hasRelease
	})
	reportEscapes(pass, model, u, fd)
	if !hasRelease {
		return
	}

	g := flow.New(fd.Body)
	if g.Imprecise {
		return
	}

	transfer := func(n ast.Node, facts flow.Facts) {
		// Gens: release calls anywhere in the node.
		flow.Visit(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if v, pos := model.releasedArg(info, call); v != nil {
					facts[v] = pos
				}
			}
			return true
		})
		// Kills: plain reassignment of a tracked variable gives it a new
		// (or nil) referent; the released fact dies.
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						delete(facts, v)
					}
					if v, ok := info.Defs[id].(*types.Var); ok {
						delete(facts, v)
					}
				}
			}
		case *ast.RangeStmt:
			for _, l := range []ast.Expr{n.Key, n.Value} {
				if l == nil {
					continue
				}
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						delete(facts, v)
					}
					if v, ok := info.Defs[id].(*types.Var); ok {
						delete(facts, v)
					}
				}
			}
		}
	}

	in := flow.ForwardMay(g, transfer)
	for _, blk := range g.Blocks {
		facts := flow.Facts{}
		//simlint:allow maporder copying the facts map; insertion order is irrelevant
		for k, v := range in[blk] {
			facts[k] = v
		}
		for _, n := range blk.Nodes {
			reportUses(pass, model, u, n, facts)
			transfer(n, facts)
		}
	}
}

// reportUses flags reads of variables whose released fact is live at
// node n. Plain-identifier assignment targets are kills, not uses; the
// argument of a release call is flagged as a double release instead.
func reportUses(pass *lint.ModulePass, model *poolModel, u *lint.Unit, n ast.Node, facts flow.Facts) {
	if len(facts) == 0 {
		return
	}
	info := u.Info
	// Identifiers to skip: plain assignment/range targets.
	skip := map[*ast.Ident]bool{}
	rerelease := map[*ast.Ident]bool{}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				skip[id] = true
			}
		}
	case *ast.RangeStmt:
		for _, l := range []ast.Expr{n.Key, n.Value} {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	flow.Visit(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if v, _ := model.releasedArg(info, call); v != nil {
				if _, live := facts[v]; live {
					if rf, ok := ast.Unparen(releaseExpr(model, info, call)).(*ast.Ident); ok {
						rerelease[rf] = true
					}
				}
			}
		}
		return true
	})
	flow.Visit(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		relPos, live := facts[v]
		if !live {
			return true
		}
		pos := u.Fset.Position(relPos)
		if rerelease[id] {
			pass.Reportf(id.Pos(), "doublerelease",
				"pooled %s released again after release at %s (handle contract, DESIGN.md §9)",
				id.Name, posLabel(pos))
		} else {
			pass.Reportf(id.Pos(), "useafterrelease",
				"use of pooled %s after release at %s (handle contract, DESIGN.md §9)",
				id.Name, posLabel(pos))
		}
		return true
	})
}

// releaseExpr returns the handle expression of a release call.
func releaseExpr(m *poolModel, info *types.Info, call *ast.CallExpr) ast.Expr {
	fn, _ := calleeObj(info, call).(*types.Func)
	if fn == nil {
		return nil
	}
	rf, ok := m.releases[fn.Origin().FullName()]
	if !ok {
		return nil
	}
	if rf.param == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if rf.param < len(call.Args) {
		return call.Args[rf.param]
	}
	return nil
}

func posLabel(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

// itoa avoids pulling strconv into the hot import set for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// reportEscapes flags stores of pooled pointers into package-level
// variables: the store outlives every handle, so the pool can recycle
// the struct while the global still points at it.
func reportEscapes(pass *lint.ModulePass, model *poolModel, u *lint.Unit, fd *ast.FuncDecl) {
	info := u.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			root := lhsRootIdent(l)
			if root == nil {
				continue
			}
			v, ok := info.Uses[root].(*types.Var)
			if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				continue
			}
			// Does any RHS expression carry a pooled pointer?
			for _, r := range as.Rhs {
				found := false
				ast.Inspect(r, func(e ast.Node) bool {
					if ex, ok := e.(ast.Expr); ok {
						if t := typeOf(info, ex); t != nil && model.isPooledPtr(t) {
							found = true
							return false
						}
					}
					return true
				})
				if found {
					pass.Reportf(as.Pos(), "poolescape",
						"pooled pointer stored in package-level %s outlives the handle contract (DESIGN.md §9)",
						root.Name)
					break
				}
			}
		}
		return true
	})
}

// lhsRootIdent returns the base identifier of an assignment target
// (x, x.f, x[i], ...), or nil.
func lhsRootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
