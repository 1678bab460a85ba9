package main

import (
	"errors"
	"os"
	"os/exec"
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
