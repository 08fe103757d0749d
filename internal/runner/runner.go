// Package runner fans independent simulation jobs across a bounded worker
// pool while keeping every observable output deterministic.
//
// The simulation kernel (internal/sim) is deliberately single-threaded:
// one Engine, one event heap, bit-for-bit reproducible. The parallelism
// this repository can exploit is *between* engines — a sweep, an ablation
// or an experiment suite runs many fully independent (Config, System)
// points, each with its own Engine. The runner provides exactly that
// shape, with three guarantees:
//
//  1. Results are returned (Run) or emitted (Stream) in submission order,
//     regardless of the order jobs complete in. A run with Workers == 1
//     executes jobs strictly sequentially on the calling goroutine, so its
//     output is byte-for-byte the pre-parallelism behaviour.
//  2. A panic inside a job is captured into that job's Result.Err (as a
//     *PanicError carrying the recovered value and stack) instead of
//     killing the process; sibling jobs are unaffected.
//  3. Per-job wall-clock and simulated-event metrics are collected so a
//     whole run can be summarised (Summarize).
//
// Jobs must be self-contained: construct the core.System / sim.Engine
// *inside* the job function, never share one across jobs. core.Config and
// every parameter struct it embeds are scalar value types (no slices or
// maps), so copying a Config into each job closure is safe; the one
// pointer-ish field, ComputeHook, must not close over shared mutable
// state when jobs run concurrently.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Job is one self-contained unit of work producing a T.
type Job[T any] func() (T, error)

// Result is the outcome of one job, tagged with its submission index.
type Result[T any] struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Value is the job's return value; the zero value on error.
	Value T
	// Err is the job's returned error, or a *PanicError if it panicked.
	Err error
	// Wall is the job's wall-clock execution time.
	Wall time.Duration
	// Events is the number of simulated events the job reported, via the
	// EventCounter interface on its Value (0 if not implemented).
	Events int64
	// TraceEvents is the number of trace events the job's value carried,
	// via the TraceCarrier interface on its Value (0 if not implemented or
	// tracing was disabled). Populated only for successful jobs.
	TraceEvents int64
}

// PanicError wraps a panic recovered from a job.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v", e.Value)
}

// EventCounter is implemented by job results that can report how many
// simulated events producing them took (e.g. *core.Report). The runner
// records it into Result.Events for run summaries.
type EventCounter interface {
	EventCount() int64
}

// TraceCarrier is implemented by job results that carry a recorded event
// trace (e.g. a sweep row holding its point's *tracing.Trace). The runner
// copies the count into Result.TraceEvents so Summarize can report how
// much trace data a run produced without the runner importing the tracing
// package — the same decoupling EventCounter uses.
type TraceCarrier interface {
	TraceEventCount() int64
}

// Workers normalises a worker-count flag: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes the jobs on up to workers goroutines and returns all
// results in submission order. workers <= 0 uses one worker per CPU;
// workers == 1 runs every job sequentially on the calling goroutine.
func Run[T any](workers int, jobs []Job[T]) []Result[T] {
	out := make([]Result[T], 0, len(jobs))
	Stream(workers, jobs, func(r Result[T]) { out = append(out, r) })
	return out
}

// Stream executes the jobs on up to workers goroutines and calls emit
// once per job, in submission order, as soon as each result's turn
// arrives (a completed job is held until all earlier jobs have been
// emitted). emit runs on the calling goroutine.
func Stream[T any](workers int, jobs []Job[T], emit func(Result[T])) {
	workers = Workers(workers)
	if workers == 1 || len(jobs) <= 1 {
		for i, job := range jobs {
			emit(execute(i, job))
		}
		return
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// One single-slot channel per job keeps reordering trivial: workers
	// complete in any order, the emitter drains slots strictly by index.
	slots := make([]chan Result[T], len(jobs))
	for i := range slots {
		slots[i] = make(chan Result[T], 1)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				slots[i] <- execute(i, jobs[i])
			}
		}()
	}
	go func() {
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}()
	for i := range slots {
		emit(<-slots[i])
	}
}

// Map runs fn over items with bounded parallelism, returning results in
// item order. It is the common "sweep a slice of configurations" shape.
func Map[T, R any](workers int, items []T, fn func(T) (R, error)) []Result[R] {
	jobs := make([]Job[R], len(items))
	for i, item := range items {
		item := item
		jobs[i] = func() (R, error) { return fn(item) }
	}
	return Run(workers, jobs)
}

// FirstErr returns the first (by submission order) job error, or nil.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Values extracts the ordered values of a fully successful run. It is a
// convenience for callers that have already checked FirstErr.
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}

// execute runs one job with panic capture and metric collection.
func execute[T any](index int, job Job[T]) Result[T] {
	res := Result[T]{Index: index}
	//simlint:allow wallclock measuring real job runtime is this harness's purpose
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				res.Err = &PanicError{Value: v, Stack: buf}
			}
		}()
		res.Value, res.Err = job()
	}()
	//simlint:allow wallclock wall-time metric, never feeds simulated time
	res.Wall = time.Since(start)
	if ec, ok := any(res.Value).(EventCounter); ok && res.Err == nil {
		res.Events = ec.EventCount()
	}
	if tc, ok := any(res.Value).(TraceCarrier); ok && res.Err == nil {
		res.TraceEvents = tc.TraceEventCount()
	}
	return res
}

// Summary aggregates the per-job metrics of one run.
type Summary struct {
	Jobs        int
	Errors      int
	Panics      int
	Events      int64         // total simulated events across jobs
	TraceEvents int64         // total recorded trace events across jobs
	Busy        time.Duration // sum of per-job wall time (CPU work done)
	MaxWall     time.Duration // slowest single job
}

// Summarize computes a Summary over a run's results.
func Summarize[T any](results []Result[T]) Summary {
	var s Summary
	s.Jobs = len(results)
	for _, r := range results {
		if r.Err != nil {
			s.Errors++
			if _, ok := r.Err.(*PanicError); ok {
				s.Panics++
			}
		}
		s.Events += r.Events
		s.TraceEvents += r.TraceEvents
		s.Busy += r.Wall
		if r.Wall > s.MaxWall {
			s.MaxWall = r.Wall
		}
	}
	return s
}

// String renders the summary as a one-line digest for stderr run footers.
func (s Summary) String() string {
	line := fmt.Sprintf("%d jobs, %s busy, slowest %s",
		s.Jobs, s.Busy.Round(time.Millisecond), s.MaxWall.Round(time.Millisecond))
	if s.Events > 0 {
		line += fmt.Sprintf(", %d sim events", s.Events)
	}
	if s.TraceEvents > 0 {
		line += fmt.Sprintf(", %d trace events", s.TraceEvents)
	}
	if s.Errors > 0 {
		line += fmt.Sprintf(", %d errors (%d panics)", s.Errors, s.Panics)
	}
	return line
}
