package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestCommandLine: a bad -run regex, a -run that matches no analyzer, an
// unknown flag and a missing package directory are usage errors, refused
// with exit status 2 and a message naming the flag or the path at fault,
// never a panic; -json on a clean package prints an empty JSON array and
// exits 0. The test re-runs its own binary as tclint.
func TestCommandLine(t *testing.T) {
	if args, ok := os.LookupEnv("TCLINT_ARGS"); ok {
		os.Args = append([]string{"tclint"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0) // as tclint does when main returns, before the test framework reports
	}
	run := func(t *testing.T, args ...string) (stdout, stderr string, status int) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestCommandLine$")
		cmd.Env = append(os.Environ(), "TCLINT_ARGS="+strings.Join(args, "\n"))
		var out, errOut strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &exit):
			status = exit.ExitCode()
		default:
			t.Fatal(err)
		}
		return out.String(), errOut.String(), status
	}
	for _, c := range []struct {
		name  string
		args  []string
		named string
	}{
		{"bad regex", []string{"-run", "(", "."}, "-run"},
		{"no analyzer", []string{"-run", "nosuchanalyzer", "."}, "nosuchanalyzer"},
		{"unknown flag", []string{"-nosuchflag", "."}, "-nosuchflag"},
		{"missing directory", []string{"./nosuchpkg"}, "nosuchpkg"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, status := run(t, c.args...)
			if status != 2 {
				t.Fatalf("exit status %d, want 2; stderr:\n%s", status, stderr)
			}
			if !strings.Contains(stderr, c.named) || strings.Contains(stderr, "panic") {
				t.Fatalf("stderr %q, want a message naming %q", stderr, c.named)
			}
		})
	}
	t.Run("json clean", func(t *testing.T) {
		stdout, stderr, status := run(t, "-json", "twochains/internal/sim")
		if status != 0 || strings.TrimSpace(stdout) != "[]" {
			t.Fatalf("exit status %d, stdout %q, want 0 and []; stderr:\n%s", status, stdout, stderr)
		}
	})
}
