package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadScaleRefused: a -scale that is not a positive finite number is
// a bad flag, refused with a message and exit status 2 before any
// experiment runs. The test re-runs its own binary as tcperf.
func TestBadScaleRefused(t *testing.T) {
	if v, ok := os.LookupEnv("TCPERF_SCALE"); ok {
		os.Args = []string{"tcperf", "-e", "fig5", "-scale", v}
		main()
		return
	}
	for _, v := range []string{"NaN", "-1", "0", "+Inf"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleRefused$")
		cmd.Env = append(os.Environ(), "TCPERF_SCALE="+v)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-scale %s: exit %v, want status 2; output:\n%s", v, err, out)
		}
		if !strings.Contains(string(out), "-scale") || strings.Contains(string(out), "fig5") {
			t.Fatalf("-scale %s: output %q, want a message naming -scale and no table", v, out)
		}
	}
}
