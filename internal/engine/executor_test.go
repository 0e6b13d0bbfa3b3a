package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestInstanceRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&scheme{name: "x"}); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	err := r.Register(&scheme{name: "x"})
	if err == nil {
		t.Fatal("duplicate Register on an instance registry returned nil")
	}
	if !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("duplicate error %q does not name the conflicting scheme", err)
	}
	if err := r.Register(nil); err == nil {
		t.Fatal("Register(nil) returned nil error")
	}
}

func TestInstanceRegistriesAreIndependent(t *testing.T) {
	a, b := NewBuiltinRegistry(), NewBuiltinRegistry()
	if err := a.Register(&scheme{name: "only-in-a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup("only-in-a"); !ok {
		t.Fatal("scheme missing from its own registry")
	}
	if _, ok := b.Lookup("only-in-a"); ok {
		t.Fatal("scheme leaked into an unrelated registry")
	}
	if _, ok := defaultRegistry.Lookup("only-in-a"); ok {
		t.Fatal("scheme leaked into the process-global registry")
	}
	if got, want := len(b.SevenCases()), 7; got != want {
		t.Fatalf("builtin registry SevenCases = %d, want %d", got, want)
	}
}

func TestRunCasesStopsDispatchOnCancel(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int32
			// Dispatch order is index order at any pool width, so
			// cancelling from case cancelAt stops everything queued
			// after the in-flight window.
			const n, cancelAt = 64, 3
			out, err := RunCases(ctx, parallel, n, func(i int) (int, error) {
				if i == cancelAt {
					cancel()
				}
				// Give the dispatcher a chance to observe the
				// cancellation before the pool drains.
				time.Sleep(time.Millisecond)
				ran.Add(1)
				return i + 1, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(out) != n {
				t.Fatalf("partial results have length %d, want %d", len(out), n)
			}
			if int(ran.Load()) == n {
				t.Fatal("every case ran despite cancellation")
			}
			// The prefix completed before the cancellation is intact.
			for i := 0; i < cancelAt; i++ {
				if out[i] != i+1 {
					t.Fatalf("completed case %d = %d, want %d", i, out[i], i+1)
				}
			}
			// The tail was never dispatched and stays zero-valued.
			if out[n-1] != 0 {
				t.Fatalf("last case ran (= %d) despite cancellation", out[n-1])
			}
		})
	}
}

func TestRunCasesCaseErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("case failed")
	_, err := RunCases(ctx, 1, 4, func(i int) (int, error) {
		if i == 1 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the case error to take precedence", err)
	}
}

func TestRunCasesObservedOrderIsPoolWidthInvariant(t *testing.T) {
	streams := make([][]string, 0, 3)
	for _, parallel := range []int{1, 4, 9} {
		var got []string
		_, err := RunCasesObserved(context.Background(), parallel, 20,
			func(i int) (int, error) {
				if i%7 == 3 {
					return 0, fmt.Errorf("case %d failed", i)
				}
				return i * i, nil
			},
			func(i int, v int, err error) {
				got = append(got, fmt.Sprintf("%d:%d:%v", i, v, err))
			})
		if err == nil {
			t.Fatal("expected the lowest-index case error")
		}
		streams = append(streams, got)
	}
	for i := 1; i < len(streams); i++ {
		if strings.Join(streams[i], "\n") != strings.Join(streams[0], "\n") {
			t.Fatalf("observation stream differs between pool widths:\nserial:\n%v\nparallel:\n%v",
				streams[0], streams[i])
		}
	}
	if len(streams[0]) != 20 {
		t.Fatalf("observed %d cases, want 20", len(streams[0]))
	}
}

func TestEmitCasesStreamsPairsInOrder(t *testing.T) {
	var events []string
	sink := SinkFunc(func(e Event) { events = append(events, e.String()) })
	observe := EmitCases[int](sink, "exp", 3, func(i int) string { return fmt.Sprintf("c%d", i) })
	_, err := RunCasesObserved(context.Background(), 2, 3,
		func(i int) (int, error) { return i, nil }, observe)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exp: case 1/3 c0: started",
		"exp: case 1/3 c0: ok",
		"exp: case 2/3 c1: started",
		"exp: case 2/3 c1: ok",
		"exp: case 3/3 c2: started",
		"exp: case 3/3 c2: ok",
	}
	if strings.Join(events, "\n") != strings.Join(want, "\n") {
		t.Fatalf("event stream:\n%s\nwant:\n%s",
			strings.Join(events, "\n"), strings.Join(want, "\n"))
	}
	if cb := EmitCases[int](nil, "exp", 3, nil); cb != nil {
		t.Fatal("EmitCases with nil sink should return nil")
	}
}
