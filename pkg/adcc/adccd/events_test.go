package adccd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adcc/pkg/adcc"
)

// splitFrames splits an SSE body after each blank line. adccd's data
// payloads are single-line JSON, so a blank line only ever ends a frame.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := bytes.Index(b, []byte("\n\n"))
		if i < 0 {
			return append(out, b)
		}
		out = append(out, b[:i+2])
		b = b[i+2:]
	}
	return out
}

// decodeFrames parses adccd's wire form strictly: every frame is
// exactly "id: N\nevent: T\ndata: D\n\n".
func decodeFrames(t *testing.T, b []byte) []adcc.StreamEvent {
	t.Helper()
	var evs []adcc.StreamEvent
	for _, f := range splitFrames(b) {
		lines := strings.Split(strings.TrimSuffix(string(f), "\n\n"), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "id: ") ||
			!strings.HasPrefix(lines[1], "event: ") || !strings.HasPrefix(lines[2], "data: ") {
			t.Fatalf("malformed frame %q", f)
		}
		seq, err := strconv.Atoi(strings.TrimPrefix(lines[0], "id: "))
		if err != nil {
			t.Fatalf("frame %q: %v", f, err)
		}
		evs = append(evs, adcc.StreamEvent{
			Seq:  seq,
			Type: strings.TrimPrefix(lines[1], "event: "),
			Data: json.RawMessage(strings.TrimPrefix(lines[2], "data: ")),
		})
	}
	return evs
}

// sprintFrame renders one frame with fmt, independently of the
// encoder under test.
func sprintFrame(seq int, typ string, data []byte) string {
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", seq, typ, data)
}

// TestEventFramesWireForm holds the appended history and every
// eventsFrom position to a fmt rendering of hand-written payloads, and
// checks that bytes handed out before later appends never change.
func TestEventFramesWireForm(t *testing.T) {
	j := newJob(adcc.JobInfo{ID: "j1", Status: adcc.JobRunning, ShardsTotal: 1})
	j.appendEngineEvent(adcc.CaseStarted{Experiment: "run/mm", Case: "native", Index: 0, Total: 2})
	j.appendEngineEvent(adcc.Progress{Stage: "campaign/profile", Done: 1, Total: 1})
	j.appendEngineEvent(adcc.InjectionDone{Cell: "mm/native@NVM-only", Index: 0, Total: 1, Outcome: "clean"})
	early, next, _, done := j.eventsFrom(0)
	if next != 3 || done {
		t.Fatalf("eventsFrom(0) on a running job: next %d done %v, want 3 false", next, done)
	}
	earlyCopy := bytes.Clone(early)
	j.shardDone("mm/native@NVM-only")
	j.appendEngineEvent(adcc.CaseFinished{Experiment: "run/mm", Case: "native", Index: 1, Total: 2, Err: "boom"})
	j.complete([]byte("{}"), 1)

	frames := []string{
		sprintFrame(0, "case_started", []byte(`{"experiment":"run/mm","case":"native","index":0,"total":2}`)),
		sprintFrame(1, "progress", []byte(`{"stage":"campaign/profile","done":1,"total":1}`)),
		sprintFrame(2, "injection_done", []byte(`{"cell":"mm/native@NVM-only","index":0,"total":1,"outcome":"clean"}`)),
		sprintFrame(3, "shard_done", []byte(`{"cell":"mm/native@NVM-only","shards_done":1,"shards_total":1}`)),
		sprintFrame(4, "case_finished", []byte(`{"experiment":"run/mm","case":"native","index":1,"total":2,"error":"boom"}`)),
	}
	final, err := json.Marshal(j.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(early, earlyCopy) {
		t.Errorf("bytes handed out before later appends changed:\n%q\nwas\n%q", early, earlyCopy)
	}
	n := len(frames)
	for seq := 0; seq <= n+2; seq++ {
		got, next, _, done := j.eventsFrom(seq)
		want, wantNext := sprintFrame(max(seq, n), "done", final), max(seq, n)
		if seq < n {
			want = strings.Join(frames[seq:], "") + want
		}
		if string(got) != want || next != wantNext || !done {
			t.Errorf("eventsFrom(%d) = %q, next %d, done %v\nwant %q, next %d, done true",
				seq, got, next, done, want, wantNext)
		}
	}
	// A terminal job's history is closed.
	j.appendEngineEvent(adcc.Progress{Stage: "late", Done: 1, Total: 1})
	if got, _, _, _ := j.eventsFrom(n); string(got) != sprintFrame(n, "done", final) {
		t.Errorf("an event appended after the done frame was served: %q", got)
	}
}

// getEvents fetches a job's raw event stream body; a non-empty
// lastEventID is sent as the Last-Event-ID header.
func getEvents(t *testing.T, url, lastEventID string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return b
}

// TestEventStreamWireBytes pins the served bytes of a real job's event
// stream: a subscriber connected while the job runs receives exactly
// the bytes of a replay after it is done; that body is the fmt
// rendering of its frames, numbered 0, 1, ... with the done frame last;
// and ?from=K and Last-Event-ID: K each return the body's suffix from
// frame K+1.
func TestEventStreamWireBytes(t *testing.T) {
	srv, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the first shard checkpoint until the live subscriber is
	// connected, so the job cannot finish before it.
	release := make(chan struct{})
	var once sync.Once
	srv.testCellHook = func(ctx context.Context, _ string) {
		once.Do(func() {
			select {
			case <-release:
			case <-ctx.Done():
			}
		})
	}
	info, err := srv.Submit(tinySpec())
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	url := ts.URL + "/v1/campaigns/" + info.ID + "/events"
	resp, err := http.Get(url)
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	// The handler flushes its headers before it first reads the history,
	// so the subscriber is connected now.
	if st, _ := srv.Job(info.ID); st.Status == adcc.JobDone {
		t.Errorf("job finished before the live subscriber connected")
	}
	close(release)
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	body := getEvents(t, url, "")
	if !bytes.Equal(live, body) {
		t.Errorf("live subscriber got %d bytes, the replay after done %d; they differ", len(live), len(body))
	}
	evs := decodeFrames(t, body)
	var rendered strings.Builder
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("frame %d has id %d", i, e.Seq)
		}
		rendered.WriteString(sprintFrame(e.Seq, e.Type, e.Data))
	}
	if rendered.String() != string(body) {
		t.Errorf("body differs from the fmt rendering of its frames")
	}
	final, _ := srv.Job(info.ID)
	wantFinal, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || !bytes.Equal(last.Data, wantFinal) {
		t.Fatalf("last frame %s %s, want done %s", last.Type, last.Data, wantFinal)
	}

	frames := splitFrames(body)
	n := len(frames)
	for _, k := range []int{0, 1, n / 2, n - 2} {
		want := bytes.Join(frames[k+1:], nil)
		if got := getEvents(t, fmt.Sprintf("%s?from=%d", url, k), ""); !bytes.Equal(got, want) {
			t.Errorf("?from=%d: %d bytes, want the %d-byte suffix from frame %d", k, len(got), len(want), k+1)
		}
		if got := getEvents(t, url, strconv.Itoa(k)); !bytes.Equal(got, want) {
			t.Errorf("Last-Event-ID %d: %d bytes, want the %d-byte suffix from frame %d", k, len(got), len(want), k+1)
		}
	}
}

// TestEventStreamConcurrentSubscribers runs several subscribers against
// one job from submission to done, so the race detector sees readers
// write out history slices while the campaign appends past them.
func TestEventStreamConcurrentSubscribers(t *testing.T) {
	srv, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := srv.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/campaigns/" + info.ID + "/events"
	bodies := make([][]byte, 4)
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	want := getEvents(t, url, "")
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Errorf("subscriber %d got %d bytes, the replay after done %d", i, len(b), len(want))
		}
	}
}
