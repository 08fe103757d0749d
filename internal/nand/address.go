package nand

import "fmt"

// Addr identifies one physical page inside a die (plane, block, page).
// Channel and die selection live a level up, in the ssd package.
type Addr struct {
	Plane int
	Block int
	Page  int
}

// String renders the address as pl/blk/pg.
func (a Addr) String() string {
	return fmt.Sprintf("pl%d/blk%d/pg%d", a.Plane, a.Block, a.Page)
}

// valid reports whether the address is inside the geometry of p.
func (a Addr) valid(p *Params) bool {
	return a.Plane >= 0 && a.Plane < p.PlanesPerDie &&
		a.Block >= 0 && a.Block < p.BlocksPerPlane &&
		a.Page >= 0 && a.Page < p.PagesPerBlock
}
