package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPayloadRefused: a -payload that is negative, or whose frames cannot
// fit the node's mailbox, is a bad flag, refused with a message naming it
// and exit status 2, not a makeslice panic or an allocation failure. The
// last row fits half the address space but not what the node's other
// regions leave of it. The test re-runs its own binary as tcrun.
func TestPayloadRefused(t *testing.T) {
	if payload := os.Getenv("TCRUN_PAYLOAD"); payload != "" {
		os.Args = []string{"tcrun", "-app", "tcbench", "-jam", "sssum", "-payload", payload}
		main()
		return
	}
	for _, payload := range []string{"-5", "9223372036854775807", "67108864", "31000000"} {
		payload := payload
		t.Run(payload, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestPayloadRefused$")
			cmd.Env = append(os.Environ(), "TCRUN_PAYLOAD="+payload)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; output:\n%s", err, out)
			}
			if !strings.Contains(string(out), "-payload "+payload) || strings.Contains(string(out), "panic") {
				t.Fatalf("output %q, want a message naming -payload %s", out, payload)
			}
		})
	}
}

// TestHostileInput: a -pkg file that is missing or is 300 bytes of
// garbage, an unknown -app, an unknown -backend, and no -jam are refused
// with a message. Each case exits with status 2 for a usage error and 1
// otherwise, never 0 and never with a panic, and its stderr names the
// command (as its "usage:" line or its error prefix) and the file, app
// or backend at fault. The test re-runs its own binary as tcrun.
func TestHostileInput(t *testing.T) {
	if args, ok := os.LookupEnv("TCRUN_ARGS"); ok {
		os.Args = append([]string{"tcrun"}, strings.Split(args, "\n")...)
		main()
		return
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.tcpkg")
	garbage := filepath.Join(dir, "garbage.tcpkg")
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
		named  string
	}{
		{"missing file", []string{"-pkg", missing, "-jam", "sssum"}, 1, missing},
		{"garbage file", []string{"-pkg", garbage, "-jam", "sssum"}, 1, garbage},
		{"unknown app", []string{"-app", "nosuchapp", "-jam", "sssum"}, 1, "nosuchapp"},
		{"unknown backend", []string{"-app", "tcbench", "-jam", "sssum", "-backend", "nosuchfabric"}, 1, "nosuchfabric"},
		{"no jam", []string{"-app", "tcbench"}, 2, "-jam"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestHostileInput$")
			cmd.Env = append(os.Environ(), "TCRUN_ARGS="+strings.Join(c.args, "\n"))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != c.status {
				t.Fatalf("exit %v, want status %d; stderr:\n%s", err, c.status, stderr.String())
			}
			msg := stderr.String()
			named := strings.HasPrefix(msg, "tcrun: ") || strings.HasPrefix(msg, "usage: tcrun ")
			if !named || !strings.Contains(msg, c.named) || strings.Contains(msg, "panic") {
				t.Fatalf("stderr %q, want a message naming tcrun and %q", msg, c.named)
			}
		})
	}
}
