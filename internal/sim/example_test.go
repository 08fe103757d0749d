package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Example shows the engine's core pattern: schedule events, let resources
// serialize contenders, read the clock.
func Example() {
	eng := sim.NewEngine()
	bus := sim.NewResource(eng, "bus", 1)

	// Two transfers contend for one bus; a third job runs in parallel.
	bus.Use(100, func() { fmt.Println("transfer A done at", eng.Now()) })
	bus.Use(100, func() { fmt.Println("transfer B done at", eng.Now()) })
	eng.Schedule(50, func() { fmt.Println("independent event at", eng.Now()) })

	eng.Run()
	// Output:
	// independent event at 50ns
	// transfer A done at 100ns
	// transfer B done at 200ns
}

// ExamplePreemptible shows program/erase suspend: a high-priority read
// preempts a long program, which resumes afterwards.
func ExamplePreemptible() {
	eng := sim.NewEngine()
	plane := sim.NewPreemptible(eng, "plane", 5)
	plane.Use(300, func() { fmt.Println("program done at", eng.Now()) })
	eng.Schedule(100, func() {
		plane.UsePriority(65, func() { fmt.Println("read done at", eng.Now()) })
	})
	eng.Run()
	// Output:
	// read done at 165ns
	// program done at 370ns
}
