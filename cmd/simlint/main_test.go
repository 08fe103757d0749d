package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for simlint: with asMainEnv
// set, it runs main on its own arguments instead of the tests, so the
// tests below drive the real flag parsing, output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMainEnv = "SIMLINT_TEST_AS_MAIN"

// simlint runs the driver from the module root with args and returns its
// stdout and exit status.
func simlint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	return simlintIn(t, "../..", args...)
}

// simlintIn runs the driver from dir, relative to this package.
func simlintIn(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("simlint %v: %v\n%s", args, err, stderr.String())
	return "", 0
}

// TestDriverScopesAndSuppression runs simlint -json over the driver
// fixture. The wall-clock read is in scope and reported. The fmt.Println
// finding of tracesink, which governs only internal/tracing, is dropped,
// so the allow on its line is stale. The allow that only globalstate
// uses suppresses its finding and is not stale. Each line's fields come
// in the order file, line, col, analyzer, category, message.
func TestDriverScopesAndSuppression(t *testing.T) {
	out, code := simlint(t, "-json", "./cmd/simlint/testdata/driver/...")
	if out != driverFindings {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, driverFindings)
	}
	if code != 1 {
		t.Errorf("exit status %d with findings, want 1", code)
	}
}

// driverFindings is simlint -json's output on the driver fixture.
const driverFindings = `{"file":"cmd/simlint/testdata/driver/findings/findings.go","line":16,"col":9,` +
	`"analyzer":"nondeterminism","category":"wallclock",` +
	`"message":"wall-clock call time.Now in a simulation package; simulated time must come from sim.Engine"}` + "\n" +
	`{"file":"cmd/simlint/testdata/driver/findings/findings.go","line":23,"col":21,` +
	`"analyzer":"simlint","category":"unusedallow",` +
	`"message":"//simlint:allow tracesink suppresses nothing here; remove the stale directive"}` + "\n"

// TestDriverPatternsResolveAgainstWorkingDirectory runs simlint from
// below the module root: "./...", "dir/..." and plain directories all
// name directories under the working directory, and findings are still
// reported module-relative.
func TestDriverPatternsResolveAgainstWorkingDirectory(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		args []string
	}{
		{"testdata/driver", []string{"-json", "./..."}},
		{".", []string{"-json", "testdata/driver/..."}},
		{"testdata", []string{"-json", "driver/findings"}},
	} {
		out, code := simlintIn(t, tc.dir, tc.args...)
		if out != driverFindings || code != 1 {
			t.Errorf("simlint %v from %s: exit status %d, stdout:\n%s\nwant 1 and:\n%s",
				tc.args, tc.dir, code, out, driverFindings)
		}
	}
}

// TestDriverCleanExitsZero runs simlint over a package with nothing to
// report: no output and exit status 0.
func TestDriverCleanExitsZero(t *testing.T) {
	out, code := simlint(t, "-json", "./cmd/simlint/testdata/driver/clean/...")
	if out != "" || code != 0 {
		t.Errorf("clean package: stdout %q, exit status %d; want no output, 0", out, code)
	}
}

// TestDriverUnusedNeedsAMain runs simlint over library packages alone.
// With no main in the load set, reachability has no roots, and unused
// must stay silent rather than flag every function.
func TestDriverUnusedNeedsAMain(t *testing.T) {
	out, _ := simlint(t, "-json", "./internal/core/...")
	if strings.Contains(out, `"analyzer":"unused"`) {
		t.Errorf("unused reported findings with no main loaded:\n%s", out)
	}
}
