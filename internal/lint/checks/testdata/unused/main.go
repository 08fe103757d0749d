// Command unused is the fixture's only main: everything the analyzer
// keeps live is reached from here, from an init function, from a
// package-level initializer or from an allowed root.
package main

import (
	"fmt"

	"repro/internal/lint/checks/testdata/unused/lib"
)

// rig has the shape of core's systems table: a method value stored in a
// package-level table is live although nothing calls it by name.
type rig struct{ planes int }

func (r *rig) planeWindow() int { return r.planes }

// stray is declared on a live type, but nothing names it.
func (r *rig) stray() int { return 0 } // want `main\.\(\*rig\)\.stray is unused`

var table = []struct {
	name   string
	window func(*rig) int
}{
	{"optimstore", (*rig).planeWindow},
}

func main() {
	r := &rig{planes: 4}
	for _, row := range table {
		fmt.Println(row.name, row.window(r))
	}
	// Interface dispatch: Area is live on every live type that has it.
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area())
	// Generic code is live through its instantiations.
	fmt.Println(lib.Max([]int{1, 3, 2}))
	var st lib.Stack[string]
	st.Push("x")
	// A type handed to the standard library keeps the methods it calls:
	// go/types calls Import, fmt calls Error.
	fmt.Println(lib.Check(), lib.Fail())
	fmt.Println(lib.Reached())
}
