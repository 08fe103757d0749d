package main

import (
	"strings"
	"testing"
)

// gateSpec loads the repository's own BENCHMARK.json, so the verdicts
// below are judged with the bounds and directions the gate uses.
func gateSpec(t *testing.T) spec {
	t.Helper()
	s, err := loadSpec("../../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// metricNamed returns the end-to-end metric with the given name.
func metricNamed(t *testing.T, s spec, name string) endToEnd {
	t.Helper()
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return endToEnd{}
}

// passingRuns returns a baseline and runs equal to it on every workload.
// Every baseline value is 100, so a bound b puts the limit at 100·(1±b).
func passingRuns(s spec) (map[string]result, map[string]run) {
	base, runs := map[string]result{}, map[string]run{}
	for _, w := range s.Workloads {
		b := result{SimDigest: "0x1", Metrics: map[string]float64{}}
		r := run{Correct: true, result: result{SimDigest: "0x1", Metrics: map[string]float64{}}}
		for _, m := range s.EndToEnd {
			b.Metrics[m.Name] = 100
			r.Metrics[m.Name] = 100
		}
		base[w.Name], runs[w.Name] = b, r
	}
	return base, runs
}

func TestVerdict(t *testing.T) {
	s := gateSpec(t)
	w := s.Workloads[0].Name
	ops := metricNamed(t, s, "ops_per_s")
	p50 := metricNamed(t, s, "op_ms_p50")
	if ops.Better != "higher" || p50.Better != "lower" {
		t.Fatalf("directions changed: ops_per_s %s, op_ms_p50 %s", ops.Better, p50.Better)
	}
	cases := []struct {
		name   string
		edit   func(base map[string]result, r *run)
		reason string // substring of the single failure; "" passes
	}{
		{"equal to the baseline", func(map[string]result, *run) {}, ""},
		{"higher-is-better exactly at its bound", func(_ map[string]result, r *run) {
			r.Metrics[ops.Name] = 100 * (1 - ops.Bound)
		}, ""},
		{"higher-is-better past its bound", func(_ map[string]result, r *run) {
			r.Metrics[ops.Name] = 100*(1-ops.Bound) - 0.01
		}, ops.Name},
		{"higher-is-better far above the baseline", func(_ map[string]result, r *run) {
			r.Metrics[ops.Name] = 1000
		}, ""},
		{"lower-is-better exactly at its bound", func(_ map[string]result, r *run) {
			r.Metrics[p50.Name] = 100 * (1 + p50.Bound)
		}, ""},
		{"lower-is-better past its bound", func(_ map[string]result, r *run) {
			r.Metrics[p50.Name] = 100*(1+p50.Bound) + 0.01
		}, p50.Name},
		{"lower-is-better far below the baseline", func(_ map[string]result, r *run) {
			r.Metrics[p50.Name] = 1
		}, ""},
		{"correct=false", func(_ map[string]result, r *run) { r.Correct = false }, "correct=false"},
		{"a failed op", func(_ map[string]result, r *run) { r.Failed = 1 }, "1 ops failed"},
		{"sim_digest mismatch", func(_ map[string]result, r *run) { r.SimDigest = "0x2" }, "sim_digest"},
		{"missing from the baseline", func(base map[string]result, _ *run) { delete(base, w) }, "not in the baseline"},
		{"metric missing from the run", func(_ map[string]result, r *run) { delete(r.Metrics, p50.Name) }, "missing from the run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, runs := passingRuns(s)
			r := runs[w]
			c.edit(base, &r)
			runs[w] = r
			fails := verdict(s, base, runs)
			if c.reason == "" {
				if len(fails) > 0 {
					t.Fatalf("want a pass, got %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.HasPrefix(fails[0], w+": ") || !strings.Contains(fails[0], c.reason) {
				t.Fatalf("want one failure on %s naming %q, got %q", w, c.reason, fails)
			}
		})
	}
}

// TestParseRun reads the lines the benchmark prints around its result.
func TestParseRun(t *testing.T) {
	out := "wallbench sweep seed 1: 120 ops (0 failed) in 20.1 s of op time (untraced), closed loop, 1 client\n" +
		"sim_digest                 0x421c6f5ab262077e\n" +
		"audit_skipped              0\n" +
		"ops_per_s                  5.9 1/s\n" +
		`{"correct":true,"attempted":120,"failed":0,"metrics":{"ops_per_s":{"value":5.9,"unit":"1/s"}}}` + "\n"
	r, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	//simlint:allow floateq the parsed value is the decimal it was printed as
	if !r.Correct || r.Failed != 0 || r.SimDigest != "0x421c6f5ab262077e" || r.Metrics["ops_per_s"] != 5.9 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseRun([]byte(strings.Replace(out, "sim_digest", "digest", 1))); err == nil {
		t.Fatal("a result without a sim_digest line parsed")
	}
}

// TestMedianRun folds repeated runs of one workload into one.
func TestMedianRun(t *testing.T) {
	r := func(digest string, ops float64, failed int) run {
		return run{Correct: true, Failed: failed, result: result{SimDigest: digest, Metrics: map[string]float64{"ops_per_s": ops}}}
	}
	m, err := medianRun([]run{r("0x1", 30, 0), r("0x1", 10, 0), r("0x1", 20, 2)})
	if err != nil {
		t.Fatal(err)
	}
	//simlint:allow floateq the median is one of the runs' values, copied
	if m.Metrics["ops_per_s"] != 20 || m.SimDigest != "0x1" || m.Failed != 2 || !m.Correct {
		t.Fatalf("median %+v", m)
	}
	if _, err := medianRun([]run{r("0x1", 10, 0), r("0x2", 10, 0)}); err == nil {
		t.Fatal("runs with different sim_digests folded into one")
	}
}
