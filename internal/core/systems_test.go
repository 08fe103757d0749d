package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/optim"
)

// TestRowIsTheOnlyIdentity is the metamorphic test the systems table
// makes possible: interleaved's row, given hostoffload's executor, link
// verbs, admission window and host traffic, must report exactly what
// hostoffload reports in every field but System. Nothing outside the row
// may branch on which system is running.
func TestRowIsTheOnlyIdentity(t *testing.T) {
	host, _ := LookupSystem(SystemHostOffload)
	hybrid, _ := LookupSystem(SystemInterleaved)
	row := *hybrid
	row.exec, row.stream, row.admit = host.exec, host.stream, host.admit
	row.dram, row.hbm = host.dram, host.hbm

	base := func() Config {
		cfg := testConfig(dnn.GPT13B())
		cfg.MaxSimUnits = 96
		cfg.SSD.Channels = 2
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"adam", func(*Config) {}},
		{"lamb, q8", func(c *Config) { c.Optimizer, c.Precision = optim.LAMB, optim.Q8State }},
		{"layerwise", func(c *Config) { c.LayerwiseOverlap = true }},
		{"fault storm, inplace", func(c *Config) {
			c.Fault = stormSpec()
			c.Checkpoint = fault.CheckpointInPlace
		}},
	}
	for _, tc := range cases {
		name, cfg := tc.name, base()
		tc.mutate(&cfg)
		want := mustRun(t, SystemHostOffload, cfg)
		got, err := instance{&row, cfg}.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.System == want.System {
			t.Fatalf("%s: the copied row reports hostoffload's name %q", name, got.System)
		}
		got.System = want.System
		if !reflect.DeepEqual(got, want) {
			gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
			for i := 0; i < gv.NumField(); i++ {
				if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
					t.Errorf("%s: %s = %v, hostoffload reports %v", name,
						gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
				}
			}
		}
	}
}

// TestSystemNamesLiveInTheTable guards the table as the single source of
// system identity: no non-test file of core, invariant or search may
// spell a key or display name as a string literal outside systems.go, and
// none, systems.go included, may compare or switch on a key constant.
func TestSystemNamesLiveInTheTable(t *testing.T) {
	spellings := map[string]bool{}
	for _, d := range systems {
		spellings[d.key], spellings[d.name] = true, true
	}
	// The exported key constants, and invariant's alias of one.
	keyConsts := map[string]bool{"GPUResident": true}
	fset := token.NewFileSet()
	table, err := parser.ParseFile(fset, "systems.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	//simlint:allow maporder set insertion, order-free
	for _, obj := range table.Scope.Objects {
		if obj.Kind == ast.Con && strings.HasPrefix(obj.Name, "System") {
			keyConsts[obj.Name] = true
		}
	}

	for _, dir := range []string{".", "../invariant", "../search"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			isKey := func(e ast.Expr) bool {
				switch e := ast.Unparen(e).(type) {
				case *ast.Ident:
					return keyConsts[e.Name]
				case *ast.SelectorExpr:
					return keyConsts[e.Sel.Name]
				}
				return false
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); path != "systems.go" && n.Kind == token.STRING && err == nil && spellings[s] {
						t.Errorf("%s: system name %q spelled outside the systems table", fset.Position(n.Pos()), s)
					}
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isKey(n.X) || isKey(n.Y)) {
						t.Errorf("%s: comparison against a system key; read the row instead", fset.Position(n.Pos()))
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if isKey(e) {
							t.Errorf("%s: switch on a system key; read the row instead", fset.Position(e.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}

// TestSimulationsRunThroughOnePath guards the single audited run path:
// no non-test file of core outside system.go may call NewSystem, so
// core's analyses price reports their callers already hold, and no
// non-test file of experiments may call core.NewSystem anywhere but
// runSystem, which audits every report when the options ask for it.
func TestSimulationsRunThroughOnePath(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []struct {
		dir     string
		call    func(*ast.CallExpr) bool
		allowed func(file, fn string) bool
	}{
		{".", func(c *ast.CallExpr) bool {
			id, ok := ast.Unparen(c.Fun).(*ast.Ident)
			return ok && id.Name == "NewSystem"
		}, func(file, _ string) bool { return file == "system.go" }},
		{"../experiments", func(c *ast.CallExpr) bool {
			sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewSystem" {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == "core"
		}, func(_, fn string) bool { return fn == "runSystem" }},
	} {
		files, err := filepath.Glob(filepath.Join(pkg.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn := ""
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = d.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok && pkg.call(c) && !pkg.allowed(filepath.Base(path), fn) {
						t.Errorf("%s: NewSystem called outside the audited run path", fset.Position(c.Pos()))
					}
					return true
				})
			}
		}
	}
}
