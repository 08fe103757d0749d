package runner

import "testing"

// BenchmarkOverhead measures the pool's fixed cost on empty jobs — the
// price of ordering and panic capture when jobs do no work. The sweep
// workload itself is benchmarked end to end by wallbench's sweep workload.
func BenchmarkOverhead(b *testing.B) {
	jobs := make([]Job[int], 256)
	for i := range jobs {
		jobs[i] = func() (int, error) { return 0, nil }
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(0, jobs)
	}
}
