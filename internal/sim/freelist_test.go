package sim

import (
	"sync"
	"testing"
)

// TestFreelistResetRewinds runs one pass of Gets and Puts over three
// slabs, dirtying every record it holds, then Resets the list and runs
// the pass again: the second pass must get zeroed records at the first
// pass's addresses, in the same order, and allocate nothing.
func TestFreelistResetRewinds(t *testing.T) {
	type rec struct {
		n    int
		next *rec
	}
	var l Freelist[rec]
	// pass Gets len(got) records and Puts every third straight back, so
	// the Gets mix records from the free list with records carved from
	// slabs; the rest stay in use, as a wedged run leaves them.
	pass := func(got []*rec) {
		for i := range got {
			x := l.Get()
			got[i] = x
			// A record comes back from Get as Put left it, so only one
			// Put earlier in this pass may be dirty.
			if x.n != -1 && *x != (rec{}) {
				t.Fatalf("Get %d returned %+v, want a zeroed record", i, *x)
			}
			x.n, x.next = i+1, x
			if i%3 == 2 {
				x.n = -1
				l.Put(x)
			}
		}
	}
	const n = 2*freelistSlab + 5
	first := make([]*rec, n)
	pass(first)
	l.Reset()
	second := make([]*rec, n)
	pass(second)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Get %d after Reset returned another record than the first pass", i)
		}
	}
	per := testing.AllocsPerRun(10, func() {
		l.Reset()
		pass(second)
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("a pass after Reset allocates %v objects, want 0", per)
	}
}

// TestShelfConcurrentEngines has 8 goroutines take engines from the shelf,
// run a fixed workload and give them back. Every run must fire the same
// events at the same times, whichever engine it took and whatever run
// the engine served before; under -race it checks that the shelf is the
// only state the goroutines share. The test empties the shelf again.
func TestShelfConcurrentEngines(t *testing.T) {
	workload := func(e *Engine) (sum Time) {
		res := NewResource(e, "r", 2)
		for i := 0; i < 64; i++ {
			d := Time(1 + i%5)
			e.Schedule(Time(i%7), func() {
				res.Use(d, Func(func() { sum += e.Now() }))
			})
		}
		e.Run()
		return sum + Time(e.Fired())
	}
	want := workload(NewEngine())
	const goroutines, runs = 8, 50
	var wg sync.WaitGroup
	errs := make(chan Time, goroutines*runs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				e := NewEngine()
				if e.Now() != 0 || e.Fired() != 0 {
					t.Errorf("a shelved engine starts at %v with %d events fired", e.Now(), e.Fired())
				}
				if got := workload(e); got != want {
					errs <- got
				}
				e.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("a run on a shelved engine summed %v, want %v", got, want)
	}
	held := 0
	for engines.Take() != nil {
		held++
	}
	if held > goroutines {
		t.Errorf("the shelf held %d engines after %d goroutines ran, want at most %d", held, goroutines, goroutines)
	}
}
