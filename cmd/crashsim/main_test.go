package main

import (
	"strings"
	"testing"
)

// TestBadFlagsAreUsageErrors: every out-of-range single-point flag exits
// 2 with a message naming it, before any machine is built — where the
// command used to panic (-occurrence -3), run and exit 0 (-occurrence 0,
// -loop 3) or fall back silently (-crash-op -5).
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-workload", "cg", "-n", "200", "-occurrence", "-3"}, "-occurrence"},
		{[]string{"-occurrence", "0"}, "-occurrence"},
		{[]string{"-crash-op", "-5"}, "-crash-op"},
		{[]string{"-workload", "mm", "-loop", "3"}, "-loop"},
		{[]string{"-workload", "mm", "-loop", "0"}, "-loop"},
		{[]string{"-workload", "mm", "-k", "-1"}, "-k"},
		{[]string{"-workload", "mm", "-n", "40", "-k", "50"}, "-k"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-workload", "stencil", "-n", "-160"}, "-n"},
		{[]string{"-workload", "mc", "-lookups", "0"}, "-lookups"},
		{[]string{"-llc", "-2048"}, "-llc"},
		{[]string{"-campaign", "-n", "200"}, "-n"},
		{[]string{"-workload", "nope"}, "nope"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.flag) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q does not name %s, or stdout %q is not empty", tc.args, stderr.String(), tc.flag, stdout.String())
		}
	}
}

// TestSmallRunSucceeds: a valid single-point run crashes, recovers and
// exits 0.
func TestSmallRunSucceeds(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "cg", "-n", "200", "-occurrence", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	for _, want := range []string{"--- crash fired (op ", "--- post-crash", "recovery: crash iter 3"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}
