package checks

import (
	"go/ast"
	"go/types"
	"maps"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Unused flags production functions and methods that no program reaches:
// code only tests call, or nothing does. Liveness follows references,
// not only calls, so a function stored in a table or passed as a value is
// live. The roots are every main function in the load set, every init
// function, every package-level initializer, and every function whose
// doc comment ends in `//simlint:allow unused <reason>`: the directive
// keeps what the function references live and suppresses the function's
// own finding, or is reported stale when a real root reaches it.
//
// A method is live only if its receiver type is referenced in live code
// and the method is referenced, matches by name+arity a method of an
// interface live code calls (the callgraph's dispatch rule), or
// implements an interface that a package outside the module exports: a
// type handed to the standard library is called from code the load set
// does not hold. Objects are keyed by name, as in callgraph, because the
// Loader typechecks each package twice.
//
// The analysis is whole-program: a load set without a main reports
// nothing, and one holding some mains but not all can flag code only
// the others use.
//
// Category: unused.
var Unused = &lint.Analyzer{
	Name: "unused",
	Doc: "flags production functions and methods that no main, init function, " +
		"package-level initializer or //simlint:allow unused function reaches",
	Run: runUnused,
}

const allowUnused = lint.AllowDirective + " unused"

// decl is a production declaration, or package-level initializer, whose
// references liveness follows once it turns live.
type decl struct {
	unit *lint.Unit
	node ast.Node
}

// typeDecl is a package-level type declaration.
type typeDecl struct {
	decl
	obj *types.TypeName
}

// method is one method declaration with its receiver type key and its
// name+arity dispatch key.
type method struct {
	key, recv, dispatch string
}

type liveness struct {
	funcs   map[string]decl     // by types.Func.FullName
	types   map[string]typeDecl // by typeKey
	methods map[string][]method // by receiver type key
	byName  map[string][]method // by dispatch key
	// external holds the interfaces packages outside the module export.
	external []*types.Interface

	liveFuncs, liveTypes, dispatched map[string]bool
	queue                            []decl
}

func runUnused(pass *lint.Pass) {
	lv := &liveness{
		funcs: map[string]decl{}, types: map[string]typeDecl{},
		methods: map[string][]method{}, byName: map[string][]method{},
		external:  []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
		liveFuncs: map[string]bool{}, liveTypes: map[string]bool{}, dispatched: map[string]bool{},
	}
	var order, mains, allowed []*types.Func
	seen := map[string]bool{}
	for _, u := range pass.Units {
		if strings.HasSuffix(u.ImportPath, " [xtest]") {
			continue
		}
		for _, f := range u.Files {
			if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					lv.declare(u, gd)
					continue
				}
				fd := d.(*ast.FuncDecl)
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				switch {
				case !ok || fd.Body == nil:
					continue
				case fd.Recv == nil && fd.Name.Name == "init":
					lv.queue = append(lv.queue, decl{u, fd})
					continue
				case fd.Recv == nil && fd.Name.Name == "main" && u.Pkg.Name() == "main":
					mains = append(mains, fn)
				case lint.HasDirective(fd.Doc, allowUnused):
					allowed = append(allowed, fn)
				}
				lv.funcs[fn.FullName()] = decl{u, fd}
				order = append(order, fn)
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					m := method{fn.FullName(), recvKey(sig), dispatchKey(fn)}
					lv.methods[m.recv] = append(lv.methods[m.recv], m)
					lv.byName[m.dispatch] = append(lv.byName[m.dispatch], m)
				}
			}
		}
		lv.addExternal(u.Pkg, seen)
	}
	if len(mains) == 0 {
		return
	}
	for _, fn := range mains {
		lv.reference(fn)
	}
	lv.drain()
	reached := maps.Clone(lv.liveFuncs)
	isAllowed := map[*types.Func]bool{}
	for _, fn := range allowed {
		isAllowed[fn] = true
		lv.reference(fn)
	}
	lv.drain()
	for _, fn := range order {
		if key := fn.FullName(); !reached[key] && (!lv.liveFuncs[key] || isAllowed[fn]) {
			pass.Reportf(fn.Pos(), "unused",
				"%s.%s is unused: no main, init function or package-level initializer reaches it",
				fn.Pkg().Name(), unusedName(fn))
		}
	}
}

// declare indexes a declaration's types and queues its initializers.
func (lv *liveness) declare(u *lint.Unit, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		switch spec := spec.(type) {
		case *ast.TypeSpec:
			if tn, ok := u.Info.Defs[spec.Name].(*types.TypeName); ok {
				lv.types[typeKey(tn)] = typeDecl{decl{u, spec}, tn}
			}
		case *ast.ValueSpec:
			lv.queue = append(lv.queue, decl{u, spec})
		}
	}
}

// addExternal records the interfaces exported by pkg's imports from
// outside its module, each package once.
func (lv *liveness) addExternal(pkg *types.Package, seen map[string]bool) {
	module, _, _ := strings.Cut(pkg.Path(), "/")
	for _, imp := range pkg.Imports() {
		if first, _, _ := strings.Cut(imp.Path(), "/"); first == module || seen[imp.Path()] {
			continue
		}
		seen[imp.Path()] = true
		for _, name := range imp.Scope().Names() {
			tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			named, _ := tn.Type().(*types.Named)
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && named != nil && named.TypeParams().Len() == 0 && it.NumMethods() > 0 {
				lv.external = append(lv.external, it)
			}
		}
	}
}

// drain follows the references of queued declarations until nothing new
// turns live.
func (lv *liveness) drain() {
	for len(lv.queue) > 0 {
		d := lv.queue[len(lv.queue)-1]
		lv.queue = lv.queue[:len(lv.queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch obj := d.unit.Info.Uses[id].(type) {
				case *types.Func:
					lv.reference(obj)
				case *types.TypeName:
					if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						lv.markType(typeKey(obj))
					}
				}
			}
			_, doc := n.(*ast.CommentGroup)
			return !doc
		})
	}
}

// reference records that live code names fn.
func (lv *liveness) reference(fn *types.Func) {
	fn = fn.Origin()
	sig := fn.Type().(*types.Signature)
	switch {
	case sig.Recv() == nil:
		lv.markFunc(fn.FullName())
	case types.IsInterface(sig.Recv().Type()):
		key := dispatchKey(fn)
		if !lv.dispatched[key] {
			lv.dispatched[key] = true
			for _, m := range lv.byName[key] {
				if lv.liveTypes[m.recv] {
					lv.markFunc(m.key)
				}
			}
		}
	default:
		// A method named directly runs on a value of its receiver type.
		lv.markType(recvKey(sig))
		lv.markFunc(fn.FullName())
	}
}

func (lv *liveness) markFunc(key string) {
	if !lv.liveFuncs[key] {
		lv.liveFuncs[key] = true
		if d, ok := lv.funcs[key]; ok {
			lv.queue = append(lv.queue, d)
		}
	}
}

// markType makes a module type live, and with it the methods that
// interface calls already made, or code outside the module, can reach.
func (lv *liveness) markType(key string) {
	td, ok := lv.types[key]
	if lv.liveTypes[key] || !ok {
		return
	}
	lv.liveTypes[key] = true
	lv.queue = append(lv.queue, td.decl)
	for _, m := range lv.methods[key] {
		if lv.dispatched[m.dispatch] {
			lv.markFunc(m.key)
		}
	}
	tn := td.obj
	if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return
	}
	ptr := types.NewPointer(tn.Type())
	for _, it := range lv.external {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), it.Method(i).Name())
			if fn, ok := obj.(*types.Func); ok {
				lv.markFunc(fn.Origin().FullName())
			}
		}
	}
}

// recvNamed returns a method's receiver base type and whether the
// receiver is a pointer.
func recvNamed(sig *types.Signature) (*types.Named, bool) {
	t := sig.Recv().Type()
	p, ptr := t.(*types.Pointer)
	if ptr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named, ptr
}

func recvKey(sig *types.Signature) string {
	if named, _ := recvNamed(sig); named != nil {
		return typeKey(named.Origin().Obj())
	}
	return ""
}

func typeKey(tn *types.TypeName) string { return tn.Pkg().Path() + "." + tn.Name() }

// dispatchKey is a method's name+arity, its interface-dispatch identity.
func dispatchKey(fn *types.Func) string {
	return fn.Name() + "/" + strconv.Itoa(fn.Type().(*types.Signature).Params().Len())
}

// unusedName renders fn as F, (T).M or (*T).M; a generic receiver shows
// without its type parameters.
func unusedName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	named, ptr := recvNamed(sig)
	star := ""
	if ptr {
		star = "*"
	}
	return "(" + star + named.Obj().Name() + ")." + fn.Name()
}
