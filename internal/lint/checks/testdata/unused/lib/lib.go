// Package lib holds the fixture's library code, live and dead.
package lib

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shape is the interface main calls through.
type Shape interface{ Area() float64 }

// Square is constructed by main.
type Square struct{ side float64 }

func NewSquare(side float64) *Square { return &Square{side: side} }

func (q *Square) Area() float64 { return q.side * q.side }

// Perimeter matches no interface method that live code calls.
func (q *Square) Perimeter() float64 { return 4 * q.side } // want `lib\.\(\*Square\)\.Perimeter is unused`

// Circle implements Shape, but only tests construct it: it and its
// methods are dead.
type Circle struct{ r float64 }

func NewCircle(r float64) *Circle { return &Circle{r: r} } // want `lib\.NewCircle is unused`

func (c *Circle) Area() float64 { return 3 * c.r * c.r } // want `lib\.\(\*Circle\)\.Area is unused`

// Max is generic; main calls an instantiation.
func Max[T int | float64](xs []T) T {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// Stack is a generic type; main calls Push on Stack[string].
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Pop() T { // want `lib\.\(\*Stack\)\.Pop is unused`
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// importer is handed to go/types, which calls Import from code the load
// set does not hold.
type importer struct{}

func (importer) Import(path string) (*types.Package, error) { return types.Unsafe, nil }

// Check typechecks a file that imports unsafe through importer.
func Check() error {
	fset := token.NewFileSet()
	f := &ast.File{Name: ast.NewIdent("p")}
	conf := types.Config{Importer: importer{}}
	_, err := conf.Check("p", fset, []*ast.File{f}, nil)
	return err
}

// failure is returned as an error; only fmt calls its Error method.
type failure struct{ msg string }

func (f *failure) Error() string { return f.msg }

func Fail() error { return &failure{msg: "failed"} }

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 1 } // want `lib\.OnlyTests is unused`

// Harness is driven by the tests of other packages: the directive keeps
// it, and what it calls, live.
//
//simlint:allow unused a harness the tests of other packages drive
func Harness() int { return harnessStep() }

func harnessStep() int { return 2 }

// Reached is called from main, so the directive above it is stale.
//
//simlint:allow unused main calls it // want `suppresses nothing`
func Reached() int { return fromInit }

// registry's initializer is a root.
var registry = map[string]func() int{"table": fromTable}

func fromTable() int { return 3 }

var fromInit int

// init is a root.
func init() { fromInit = seed() }

func seed() int { return len(registry) }
