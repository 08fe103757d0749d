package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = "../.."
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
	const file = "cmd/simlint/testdata/driver/findings/findings.go"
	want := `{"file":"` + file + `","line":16,"col":9,"analyzer":"nondeterminism","category":"wallclock",` +
		`"message":"wall-clock call time.Now in a simulation package; simulated time must come from sim.Engine"}` + "\n" +
		`{"file":"` + file + `","line":23,"col":21,"analyzer":"simlint","category":"unusedallow",` +
		`"message":"//simlint:allow tracesink suppresses nothing here; remove the stale directive"}` + "\n"
	if out != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, want)
	}
	if code != 1 {
		t.Errorf("exit status %d with findings, want 1", code)
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
