package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileInput: an object or package file that is missing or is 300
// bytes of garbage, and no arguments at all, are refused with a message.
// Each case exits with status 2 for a usage error and 1 otherwise, never
// 0 and never with a panic, and its stderr names the command (as its
// "usage:" line or its error prefix) and, when there is one, the file.
// The test re-runs its own binary as tcdisasm.
func TestHostileInput(t *testing.T) {
	if args, ok := os.LookupEnv("TCDISASM_ARGS"); ok {
		os.Args = []string{"tcdisasm"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		return
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.tco")
	garbage := filepath.Join(dir, "garbage.tco")
	junk := make([]byte, 300)
	for i := range junk {
		junk[i] = byte(i*37 + 11)
	}
	if err := os.WriteFile(garbage, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		args   []string
		status int
		path   string
	}{
		{"missing object", []string{missing}, 1, missing},
		{"garbage object", []string{garbage}, 1, garbage},
		{"missing package", []string{"-pkg", missing, "-jam", "x"}, 1, missing},
		{"garbage package", []string{"-pkg", garbage, "-jam", "x"}, 1, garbage},
		{"no arguments", nil, 2, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestHostileInput$")
			cmd.Env = append(os.Environ(), "TCDISASM_ARGS="+strings.Join(c.args, "\n"))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != c.status {
				t.Fatalf("exit %v, want status %d; stderr:\n%s", err, c.status, stderr.String())
			}
			msg := stderr.String()
			named := strings.HasPrefix(msg, "tcdisasm: ") || strings.HasPrefix(msg, "usage:") && strings.Contains(msg, "tcdisasm ")
			if !named || !strings.Contains(msg, c.path) || strings.Contains(msg, "panic") {
				t.Fatalf("stderr %q, want a message naming tcdisasm and %q", msg, c.path)
			}
		})
	}
}
