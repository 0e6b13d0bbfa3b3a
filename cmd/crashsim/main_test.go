package main

import (
	"strings"
	"testing"

	"adcc/pkg/adcc"
)

// TestBadFlagsAreUsageErrors: every out-of-range flag exits 2 with a
// message naming it and prints nothing to stdout — in both modes for
// -scale, where a non-positive value used to mean 1.0 and +Inf ran the
// single-point mode at the size floors; against the
// profiled run (naming its firing count) for -occurrence and -crash-op;
// and as unknown flags for the per-family size flags the workload table
// replaced.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-workload", "cg", "-occurrence", "-3"}, "-occurrence"},
		{[]string{"-occurrence", "0"}, "-occurrence"},
		{[]string{"-occurrence", "16"}, "-occurrence must be in [1, 15]"}, // cg's profiled firings at scale 0.1
		{[]string{"-workload", "kvlog", "-occurrence", "100000"}, "-occurrence"},
		{[]string{"-crash-op", "-5"}, "-crash-op"},
		{[]string{"-crash-op", "1000000000"}, "-crash-op"},
		{[]string{"-workload", "mm", "-crash-op", "1000000000"}, "-crash-op"},
		{[]string{"-llc", "-2048"}, "-llc"},
		{[]string{"-workload", "nope"}, "nope"},
		{[]string{"-fault", "torn,eadr"}, "-fault"},
		{[]string{"-n", "200"}, "-n"},
		{[]string{"-k", "4"}, "-k"},
		{[]string{"-loop", "2"}, "-loop"},
		{[]string{"-lookups", "500"}, "-lookups"},
		{[]string{"-campaign", "-campaign-scale", "0.1"}, "-campaign-scale"},
		{[]string{"-campaign", "-occurrence", "3"}, "-occurrence"},
		{[]string{"-campaign", "-crash-op", "100"}, "-crash-op"},
		{[]string{"-campaign", "-llc", "256"}, "-llc"},
		{[]string{"-campaign", "-hetero"}, "-hetero"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.flag) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q does not name %s, or stdout %q is not empty", tc.args, stderr.String(), tc.flag, stdout.String())
		}
	}
	for _, mode := range [][]string{nil, {"-campaign"}} {
		for _, s := range []string{"0", "-1", "NaN", "Inf", "-Inf"} {
			args := append([]string{"-workload", "kvlog", "-scale", s}, mode...)
			var stdout, stderr strings.Builder
			if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-scale") || stdout.Len() != 0 {
				t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 naming -scale", args, code, stderr.String(), stdout.String())
			}
		}
	}
}

// TestSmallRunSucceeds: a valid single-point run crashes at the chosen
// firing, recovers, resumes, verifies, and exits 0.
func TestSmallRunSucceeds(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "cg", "-occurrence", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	for _, want := range []string{"crashing at cg.iter-end#3", "--- crash fired (op ", "--- post-crash", "recovery: resume from ", "metric residual = ", "result: verified"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestEveryWorkloadAtDefaults: every workload of the table crashes at its
// default point, recovers, and verifies with no per-family flags.
func TestEveryWorkloadAtDefaults(t *testing.T) {
	for _, name := range adcc.NewRegistry().WorkloadNames() {
		var stdout, stderr strings.Builder
		if code := run([]string{"-workload", name}, &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit %d\nstderr: %s", name, code, stderr.String())
			continue
		}
		for _, want := range []string{"--- crash fired", "result: verified"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", name, want, stdout.String())
			}
		}
	}
}

// TestCrashOpPoint: -crash-op crashes at exactly that op count and
// overrides the default occurrence.
func TestCrashOpPoint(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "mc", "-crash-op", "20000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	for _, want := range []string{"crashing at op=20000", `--- crash fired (op 20000, trigger "") ---`, "result: verified"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestPanicInResumeIsUnrecoverable: a bit flip that sends CG's resume
// out of bounds prints as unrecoverable instead of a goroutine dump, and
// exits 0 because fail-stop is the only model a failure is fatal under.
func TestPanicInResumeIsUnrecoverable(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "cg", "-fault", "bitflip", "-occurrence", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "unrecoverable: ") || strings.Contains(stdout.String(), "result: ") {
		t.Errorf("stdout does not classify the run as unrecoverable:\n%s", stdout.String())
	}
}
