package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativePayloadRefused: a negative -payload is a bad flag, refused
// with a message and exit status 2, not a makeslice panic. The test
// re-runs its own binary as tcrun.
func TestNegativePayloadRefused(t *testing.T) {
	if os.Getenv("TCRUN_AS_MAIN") == "1" {
		os.Args = []string{"tcrun", "-app", "tcbench", "-jam", "sssum", "-payload", "-5"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativePayloadRefused$")
	cmd.Env = append(os.Environ(), "TCRUN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-payload -5") || strings.Contains(string(out), "panic") {
		t.Fatalf("output %q, want a message naming -payload -5", out)
	}
}
