package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// TestPhftlChild is not a test: it is the re-exec target of the smoke
// tests, running the real phftl main on the arguments in PHFTL_ARGS, one a
// line.
func TestPhftlChild(t *testing.T) {
	args, ok := os.LookupEnv("PHFTL_ARGS")
	if !ok {
		t.Skip("re-exec helper, driven by the smoke tests")
	}
	os.Args = append([]string{"phftl"}, strings.Split(args, "\n")...)
	main()
}

// childCmd returns the command that runs phftl on args in a child process.
func childCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "^TestPhftlChild$")
	cmd.Env = append(os.Environ(), "PHFTL_ARGS="+strings.Join(args, "\n"))
	return cmd
}

// runSim runs `phftl sim` in a child process and returns its stdout up to
// the test framework's own trailer, its stderr, and its exit code.
func runSim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := childCmd(context.Background(), append([]string{"sim"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	stdout, _, _ = strings.Cut(out.String(), "PASS\n")
	return stdout, errb.String(), code
}

// TestCSVSmoke is the check behind `make csv-smoke`: the trace file `phftl
// gen` writes for a profile, replayed with -csv at the profile's page count, must
// print exactly the measurements -trace prints for the same profile — every
// line after the header, WA through wear and the classifier statistics. It
// pins that the file arm and the generator arm share one executor and one
// replay loop (the file arm once slurped and replayed a slice).
func TestCSVSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two phftl sim runs")
	}
	const id, dw = "#52", 2
	p, ok := workload.ProfileByID(id)
	if !ok {
		t.Fatalf("no profile %s", id)
	}
	// What `phftl gen -trace '#52' -dw 2` emits.
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, p.NewGenerator().Records(dw*p.ExportedPages)); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(t.TempDir(), "t52.csv")
	if err := os.WriteFile(csv, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	measurements := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := runSim(t, args...)
		if code != 0 {
			t.Fatalf("phftl sim %v: exit %d\n%s", args, code, stderr)
		}
		header, block, ok := strings.Cut(stdout, "\n\n")
		if !ok || !strings.Contains(block, "write amplification") {
			t.Fatalf("phftl sim %v: no measurement block in\n%s", args, stdout)
		}
		t.Logf("%s", header)
		return block
	}
	fromFile := measurements("-csv", csv, "-pages", strconv.Itoa(p.ExportedPages), "-pagesize", strconv.Itoa(p.PageSize))
	fromGen := measurements("-trace", id, "-dw", strconv.Itoa(dw))
	if fromFile != fromGen {
		t.Errorf("-csv and -trace measurements differ\n-csv:\n%s\n-trace:\n%s", fromFile, fromGen)
	}
}

// TestFlagValidation pins that a bad command line fails before any work: an
// unknown or plural -scheme is rejected without opening the trace file, and
// -trace together with -csv (or neither) is a usage error.
func TestFlagValidation(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "never-opened.csv")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-scheme", "Nope", "-csv", missing}, 1, `unknown scheme "Nope"`},
		{[]string{"-scheme", "Base,PHFTL", "-csv", missing}, 1, "exactly one scheme"},
		{[]string{"-trace", "#52", "-csv", missing}, 2, "exactly one of -trace and -csv"},
		{nil, 2, "exactly one of -trace and -csv"},
	} {
		stdout, stderr, code := runSim(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("phftl sim %v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if strings.Contains(stderr, "never-opened.csv") {
			t.Errorf("phftl sim %v opened the trace before validating its flags: %q", tc.args, stderr)
		}
		if stdout != "" {
			t.Errorf("phftl sim %v printed %q before failing", tc.args, stdout)
		}
	}
}
