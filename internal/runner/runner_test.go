package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamOrderAdversarial submits jobs whose durations are inversely
// proportional to their index — under real parallelism the last job
// finishes first — and checks emission still follows submission order.
func TestStreamOrderAdversarial(t *testing.T) {
	const n = 16
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() (int, error) {
			//simlint:allow wallclock real sleeps exercise actual parallel execution
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * i, nil
		}
	}
	for _, workers := range []int{1, 2, 4, n, 2 * n} {
		var got []int
		Stream(workers, jobs, func(r Result[int]) { got = append(got, r.Index) })
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission %d has index %d, want %d", workers, i, idx, i)
			}
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d results, want %d", workers, len(got), n)
		}
	}
}

// TestRunOrderAndValues checks Run returns indexed values in order.
func TestRunOrderAndValues(t *testing.T) {
	results := Map(4, []int{5, 3, 8, 1}, func(v int) (int, error) { return v * 10, nil })
	want := []int{50, 30, 80, 10}
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for i, v := range Values(results) {
		if v != want[i] {
			t.Fatalf("result %d = %d, want %d", i, v, want[i])
		}
	}
}

// TestPanicCapture checks a panicking job becomes a per-job *PanicError
// while sibling jobs complete normally.
func TestPanicCapture(t *testing.T) {
	jobs := []Job[string]{
		func() (string, error) { return "ok0", nil },
		func() (string, error) { panic("boom") },
		func() (string, error) { return "ok2", nil },
	}
	for _, workers := range []int{1, 3} {
		rs := Run(workers, jobs)
		if rs[0].Err != nil || rs[0].Value != "ok0" {
			t.Fatalf("workers=%d: job 0 = (%q, %v)", workers, rs[0].Value, rs[0].Err)
		}
		if rs[2].Err != nil || rs[2].Value != "ok2" {
			t.Fatalf("workers=%d: job 2 = (%q, %v)", workers, rs[2].Value, rs[2].Err)
		}
		var pe *PanicError
		if !errors.As(rs[1].Err, &pe) {
			t.Fatalf("workers=%d: job 1 err = %v, want *PanicError", workers, rs[1].Err)
		}
		if pe.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "runner") {
			t.Fatalf("panic stack missing frames: %q", pe.Stack)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("panic error text = %q", pe.Error())
		}
	}
}

// TestSequentialIdentical checks workers=1 produces exactly the results a
// plain loop would, including execution order (observed via a counter).
func TestSequentialIdentical(t *testing.T) {
	var order []int
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			order = append(order, i) // safe: workers=1 runs on this goroutine
			return i, nil
		}
	}
	rs := Run(1, jobs)
	for i, r := range rs {
		if r.Index != i || r.Value != i || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
		if order[i] != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

// TestWorkersBound checks the pool never runs more than `workers` jobs at
// once.
func TestWorkersBound(t *testing.T) {
	const workers, n = 3, 24
	var inFlight, peak atomic.Int64
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			//simlint:allow wallclock real sleeps exercise actual parallel execution
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}
	}
	Run(workers, jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

type countedResult struct{ events int64 }

func (c countedResult) EventCount() int64 { return c.events }

// TestEventMetricsAndSummary checks EventCounter values flow into Result
// and Summarize aggregates wall time, events and error counts.
func TestEventMetricsAndSummary(t *testing.T) {
	jobs := []Job[countedResult]{
		func() (countedResult, error) { return countedResult{100}, nil },
		func() (countedResult, error) { return countedResult{250}, nil },
		func() (countedResult, error) { return countedResult{999}, errors.New("bad point") },
		func() (countedResult, error) { panic("kaboom") },
	}
	rs := Run(2, jobs)
	if rs[0].Events != 100 || rs[1].Events != 250 {
		t.Fatalf("events = %d, %d; want 100, 250", rs[0].Events, rs[1].Events)
	}
	if rs[2].Events != 0 {
		t.Fatalf("failed job reported %d events, want 0", rs[2].Events)
	}
	s := Summarize(rs)
	if s.Jobs != 4 || s.Errors != 2 || s.Panics != 1 || s.Events != 350 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Busy < s.MaxWall {
		t.Fatalf("busy %v < max wall %v", s.Busy, s.MaxWall)
	}
	line := s.String()
	for _, want := range []string{"4 jobs", "350 sim events", "2 errors (1 panics)"} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary string %q missing %q", line, want)
		}
	}
}

// TestFirstErr checks error selection follows submission order.
func TestFirstErr(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	rs := []Result[int]{{Index: 0}, {Index: 1, Err: errA}, {Index: 2, Err: errB}}
	if err := FirstErr(rs); err != errA {
		t.Fatalf("FirstErr = %v, want %v", err, errA)
	}
	if err := FirstErr(rs[:1]); err != nil {
		t.Fatalf("FirstErr on clean run = %v", err)
	}
}

// TestWorkersNormalisation pins the <=0 → GOMAXPROCS convention.
func TestWorkersNormalisation(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers(<=0) must be at least 1")
	}
	if Workers(7) != 7 {
		t.Fatalf("Workers(7) = %d", Workers(7))
	}
}

// TestEmptyAndSingle covers the degenerate shapes.
func TestEmptyAndSingle(t *testing.T) {
	if rs := Run[int](4, nil); len(rs) != 0 {
		t.Fatalf("empty run returned %d results", len(rs))
	}
	rs := Run(4, []Job[string]{func() (string, error) { return "only", nil }})
	if len(rs) != 1 || rs[0].Value != "only" {
		t.Fatalf("single run = %+v", rs)
	}
}

func ExampleMap() {
	results := Map(2, []int{1, 2, 3}, func(v int) (string, error) {
		return fmt.Sprintf("point-%d", v), nil
	})
	for _, r := range results {
		fmt.Println(r.Value)
	}
	// Output:
	// point-1
	// point-2
	// point-3
}
