// Command bench is the repository's benchmark regression gate. It runs
// every workload BENCHMARK.json declares through the benchmark's own
// command (wallbench/run.sh: untraced, seed 1, for the declared
// run_seconds) and judges each run against the committed baseline,
// BENCH_BASELINE.json.
//
// Usage, from the root of the repository:
//
//	bench         # run every workload three times; check the medians
//	bench -write  # run every workload three times; write the medians
//
// A workload fails the check when any of its runs is not correct or
// failed an op, when its sim_digest differs between runs or from the
// baseline's, or when the median of an end-to-end metric is worse than
// the baseline's by more than the metric's BENCHMARK.json bound, in the
// metric's better direction.
// The digest covers the warm-up reports' printed form (system, model,
// optimizer, step times to four digits, tokens/s) and every field of a
// tune frontier point, so a change to those numbers fails the gate even
// when no time moves; such a change is accepted by rewriting the
// baseline in the commit that makes it. Report fields outside that form,
// such as the utilizations, byte counts and energy, do not reach it.
// `make bench` runs -write; `make bench-gate`, part of `make verify`,
// runs the check; each takes about three times run_seconds per workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const (
	specPath     = "BENCHMARK.json"
	baselinePath = "BENCH_BASELINE.json"
	seed         = "1"
	// rounds is how many runs of each workload the check and the
	// baseline take the median of. One run keeps its own noise: on a
	// 2-vCPU VM, single runs of one tree read sweep's ops_per_s from 1096
	// to 1380 1/s, and tune's op_ms_p90 from 71 to 93 ms.
	rounds = 3
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []endToEnd `json:"end_to_end"`
}

// endToEnd is one gated metric: the direction that is better and the
// fraction by which a run may be worse than the baseline.
type endToEnd struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is what the baseline keeps of one workload's run.
type result struct {
	SimDigest string             `json:"sim_digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

// run is one workload's run as the benchmark printed it.
type run struct {
	result
	Correct bool
	Failed  int
}

func main() {
	write := flag.Bool("write", false, "rewrite "+baselinePath+" from this run instead of checking against it")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := gate(*write); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func gate(write bool) error {
	s, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var base map[string]result
	if !write {
		if base, err = loadBaseline(baselinePath); err != nil {
			return fmt.Errorf("%w (run `make bench` and commit %s)", err, baselinePath)
		}
	}
	// Each round runs every workload once, so that a slow minute on a
	// shared host lands on one run of each workload, not on all of one's.
	byName := map[string][]run{}
	for i := 0; i < rounds; i++ {
		for _, w := range s.Workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d of %d: %s\n", i+1, rounds, w.Name)
			r, err := runWorkload(s, w.Name)
			if err != nil {
				return err
			}
			byName[w.Name] = append(byName[w.Name], r)
		}
	}
	runs := map[string]run{}
	for _, w := range s.Workloads {
		r, err := medianRun(byName[w.Name])
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		runs[w.Name] = r
		fmt.Printf("%-7s sim_digest %s, correct %t, %d failed\n", w.Name, r.SimDigest, r.Correct, r.Failed)
		for _, m := range s.EndToEnd {
			if old, ok := base[w.Name].Metrics[m.Name]; ok {
				fmt.Printf("  %-16s %12.6g  baseline %12.6g  worse by %+6.1f%% (bound %.0f%%)\n",
					m.Name, r.Metrics[m.Name], old, 100*m.worse(old, r.Metrics[m.Name]), 100*m.Bound)
			} else {
				fmt.Printf("  %-16s %12.6g\n", m.Name, r.Metrics[m.Name])
			}
		}
	}
	if write {
		for _, w := range s.Workloads {
			if r := runs[w.Name]; !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s: the run is not correct (%d failed ops); %s not written", w.Name, r.Failed, baselinePath)
			}
		}
		if err := writeBaseline(baselinePath, runs); err != nil {
			return err
		}
		fmt.Printf("bench: wrote %s\n", baselinePath)
		return nil
	}
	if fails := verdict(s, base, runs); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "bench: FAIL: %s\n", f)
		}
		return fmt.Errorf("%d check(s) failed against %s; if the change is deliberate, rewrite it with `make bench` and say why in the commit", len(fails), baselinePath)
	}
	fmt.Printf("bench: OK — every workload within its bounds of %s\n", baselinePath)
	return nil
}

// medianRun folds runs of one workload into one: the median of each
// metric, which every run must report, and the sim_digest, on which every
// run must agree. A run is correct only if every run is, and its failed
// ops are the sum of theirs.
func medianRun(rs []run) (run, error) {
	m := run{Correct: true, result: result{SimDigest: rs[0].SimDigest, Metrics: map[string]float64{}}}
	for _, r := range rs {
		if r.SimDigest != m.SimDigest {
			return run{}, fmt.Errorf("sim_digest %s and %s differ between runs", m.SimDigest, r.SimDigest)
		}
		m.Correct = m.Correct && r.Correct
		m.Failed += r.Failed
	}
	//simlint:allow maporder each metric's median is computed on its own
	for name := range rs[0].Metrics {
		vs := make([]float64, 0, len(rs))
		for _, r := range rs {
			v, ok := r.Metrics[name]
			if !ok {
				return run{}, fmt.Errorf("%s missing from a run", name)
			}
			vs = append(vs, v)
		}
		sort.Float64s(vs)
		m.Metrics[name] = vs[len(vs)/2]
	}
	return m, nil
}

// worse returns how much worse fresh is than base, as a fraction of
// base, in the metric's better direction; negative means better.
func (m endToEnd) worse(base, fresh float64) float64 {
	if m.Better == "higher" {
		return (base - fresh) / base
	}
	return (fresh - base) / base
}

// verdict returns one line per reason the runs fail against the
// baseline, in workload order; none means the gate passes.
func verdict(s spec, base map[string]result, runs map[string]run) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	for _, w := range s.Workloads {
		r := runs[w.Name]
		if !r.Correct {
			fail("%s: a run reports correct=false", w.Name)
		}
		if r.Failed > 0 {
			fail("%s: %d ops failed", w.Name, r.Failed)
		}
		b, ok := base[w.Name]
		if !ok {
			fail("%s: not in the baseline", w.Name)
			continue
		}
		if r.SimDigest != b.SimDigest {
			fail("%s: sim_digest %s, baseline %s", w.Name, r.SimDigest, b.SimDigest)
		}
		for _, m := range s.EndToEnd {
			fresh, okFresh := r.Metrics[m.Name]
			old, okOld := b.Metrics[m.Name]
			switch {
			case !okFresh:
				fail("%s: %s missing from the run", w.Name, m.Name)
			case !okOld || old <= 0:
				fail("%s: %s has no positive baseline", w.Name, m.Name)
			case m.worse(old, fresh) > m.Bound:
				fail("%s: %s %.6g is %.1f%% worse than the baseline %.6g (bound %.0f%%)",
					w.Name, m.Name, fresh, 100*m.worse(old, fresh), old, 100*m.Bound)
			}
		}
	}
	return fails
}

// runWorkload runs the benchmark's command on one workload and parses
// what it prints. Its stderr, which lists every problem a run found, is
// printed only when the run fails or reports one.
func runWorkload(s spec, name string) (run, error) {
	args := append(append([]string(nil), s.Command[1:]...),
		"--workload", name, "--seed", seed, "--seconds", strconv.Itoa(s.RunSeconds), "--trace", "0")
	cmd := exec.Command(s.Command[0], args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s: %s: %w\n%s", name, strings.Join(cmd.Args, " "), err, stderr.Bytes())
	}
	r, err := parseRun(out)
	if err != nil {
		return run{}, fmt.Errorf("%s: %w", name, err)
	}
	if !r.Correct || r.Failed > 0 {
		os.Stderr.Write(stderr.Bytes())
	}
	return r, nil
}

// parseRun reads the benchmark's stdout: a "sim_digest <hex>" line above
// the result, and the result itself, one JSON object on the last line.
func parseRun(out []byte) (run, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return run{}, fmt.Errorf("parse the result line: %w", err)
	}
	r := run{Correct: res.Correct, Failed: res.Failed, result: result{Metrics: map[string]float64{}}}
	//simlint:allow maporder a map-to-map copy
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "sim_digest" {
			r.SimDigest = f[1]
		}
	}
	if r.SimDigest == "" {
		return run{}, fmt.Errorf("no sim_digest line above the result")
	}
	return r, nil
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Command) == 0 || s.RunSeconds < 1 || len(s.Workloads) == 0 {
		return s, fmt.Errorf("%s: needs a command, run_seconds ≥ 1 and a workload", path)
	}
	for _, m := range s.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 {
			return s, fmt.Errorf("%s: end_to_end %s: better %q, bound %v", path, m.Name, m.Better, m.Bound)
		}
	}
	return s, nil
}

func loadBaseline(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base map[string]result
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return base, nil
}

func writeBaseline(path string, runs map[string]run) error {
	base := make(map[string]result, len(runs))
	//simlint:allow maporder a map-to-map copy; json.Marshal sorts the keys
	for name, r := range runs {
		base[name] = r.result
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
