package adccd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
)

// tinySpec is the cheapest interesting campaign: one workload, 2%
// scale, two injections per cell, 12 cells.
func tinySpec() adcc.CampaignSpec {
	return adcc.CampaignSpec{Workloads: []string{"mm"}, Scale: 0.02, InjectionsPerCell: 2}
}

// directReport runs spec straight through the public Runner and
// returns its enveloped bytes — the reference every service path must
// reproduce exactly.
func directReport(t *testing.T, spec adcc.CampaignSpec) []byte {
	t.Helper()
	rep, err := adcc.New(nil, append(spec.Options(), adcc.WithParallelism(2))...).RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("direct RunCampaign: %v", err)
	}
	b, err := adcc.NewCampaignReport(rep).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitDone(t *testing.T, s *Server, id string) adcc.JobInfo {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		info, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if info.Status == adcc.JobDone || info.Status == adcc.JobFailed {
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return adcc.JobInfo{}
}

// TestServiceByteIdentity is the service's core contract: the report
// served over HTTP is byte-identical to running the same spec directly
// through Runner.RunCampaign, at service parallelism different from the
// reference run.
func TestServiceByteIdentity(t *testing.T) {
	srv, err := New(Config{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := adccclient.New(ts.URL, nil)

	spec := tinySpec()
	info, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.Status == adcc.JobFailed {
		t.Fatalf("job failed: %s", info.Error)
	}
	final, err := c.Wait(context.Background(), info.ID, 20*time.Millisecond)
	if err != nil || final.Status != adcc.JobDone {
		t.Fatalf("Wait: %v (status %s, err %q)", err, final.Status, final.Error)
	}
	got, err := c.Report(context.Background(), info.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if want := directReport(t, spec); !bytes.Equal(got, want) {
		t.Errorf("served report differs from direct RunCampaign (%d vs %d bytes)", len(got), len(want))
	}
	if final.ShardsDone != final.ShardsTotal || final.ShardsTotal == 0 {
		t.Errorf("shards %d/%d", final.ShardsDone, final.ShardsTotal)
	}
}

// TestReplayFieldAcceptedAndIgnored is the wire-compatibility contract
// of the retired engine switch: a spec carrying "replay":true passes
// the strict decoder, shares its cache key, report bytes, and event
// history with the spec that omits it, and a state dir whose job.json
// still carries the field loads on restart.
func TestReplayFieldAcceptedAndIgnored(t *testing.T) {
	const plain = `{"workloads":["mm"],"scale":0.02,"injections_per_cell":2}`
	const legacy = `{"workloads":["mm"],"scale":0.02,"injections_per_cell":2,"replay":true}`

	// post submits a raw spec document and returns the response status
	// and the decoded JobInfo.
	post := func(url, body string) (int, adcc.JobInfo) {
		t.Helper()
		resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info adcc.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decode response to %s: %v", body, err)
		}
		return resp.StatusCode, info
	}
	// history runs body on a fresh server and returns the job's report
	// and full event history.
	history := func(body string) ([]byte, []adcc.StreamEvent) {
		t.Helper()
		srv, err := New(Config{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, info := post(ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d, want 202", body, code)
		}
		var events []adcc.StreamEvent
		c := adccclient.New(ts.URL, nil)
		if err := c.Events(context.Background(), info.ID, -1, func(e adcc.StreamEvent) error {
			events = append(events, e)
			return nil
		}); err != nil {
			t.Fatalf("Events: %v", err)
		}
		rep, err := srv.Report(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return rep, events
	}

	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	code, first := post(ts.URL, legacy)
	if code != http.StatusAccepted {
		t.Fatalf("POST with replay = %d, want 202 (strict decoder must accept the field)", code)
	}
	if first.Spec.Replay {
		t.Error("canonical spec still carries Replay")
	}
	waitDone(t, srv, first.ID)
	code, second := post(ts.URL, plain)
	if code != http.StatusOK || second.ID != first.ID || second.CacheKey != first.CacheKey {
		t.Errorf("POST without replay = %d job %s key %s, want 200 and the finished job %s key %s",
			code, second.ID, second.CacheKey, first.ID, first.CacheKey)
	}
	if st := srv.Stats(); st.CampaignsRun != 1 {
		t.Errorf("%d campaigns ran for one cache key", st.CampaignsRun)
	}
	want, err := srv.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Close()

	// A state dir written when the switch existed: the spec in job.json
	// says "replay": true.
	jobFile := filepath.Join(dir, "jobs", first.ID, "job.json")
	b, err := os.ReadFile(jobFile)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(b, []byte(`"spec": {`), []byte(`"spec": {
    "replay": true,`), 1)
	if bytes.Equal(old, b) {
		t.Fatalf("job.json has no spec object to patch:\n%s", b)
	}
	if err := os.WriteFile(jobFile, old, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info, ok := srv2.Job(first.ID); !ok || info.Status != adcc.JobDone {
		t.Fatalf("job with replay in job.json after restart: found %v, %+v", ok, info)
	}
	if got, err := srv2.Report(first.ID); err != nil || !bytes.Equal(got, want) {
		t.Errorf("report after restart: err %v, equal %v", err, bytes.Equal(got, want))
	}

	repA, evA := history(legacy)
	repB, evB := history(plain)
	if !bytes.Equal(repA, want) || !bytes.Equal(repB, want) {
		t.Error("reports differ between the spec with replay and the spec without")
	}
	if len(evA) != len(evB) || len(evA) == 0 {
		t.Fatalf("event histories have %d and %d frames", len(evA), len(evB))
	}
	for i := range evA {
		// Job ids are random; every engine frame, shard marker, and
		// the terminal frame's shape must match.
		if evA[i].Seq != evB[i].Seq || evA[i].Type != evB[i].Type ||
			(evA[i].Type != "done" && !bytes.Equal(evA[i].Data, evB[i].Data)) {
			t.Fatalf("event %d differs:\n  with replay    %s %s\n  without replay %s %s",
				i, evA[i].Type, evA[i].Data, evB[i].Type, evB[i].Data)
		}
	}
}

// TestCacheHit asserts that resubmitting a spec with the same cache key
// does zero engine work — both against the live job table (dedupe) and,
// after a restart over the same state directory, against the on-disk
// result cache.
func TestCacheHit(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	info, err := srv.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, srv, info.ID)
	want, err := srv.Report(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Same key, different spelling (list duplicates):
	// answered by the live finished job, no new campaign.
	dup, err := srv.Submit(adcc.CampaignSpec{Workloads: []string{"mm", "mm"}, Scale: 0.02, InjectionsPerCell: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != info.ID {
		t.Errorf("dedup returned new job %s, want %s", dup.ID, info.ID)
	}
	if st := srv.Stats(); st.Deduped != 1 || st.CampaignsRun != 1 {
		t.Errorf("after dedup: %+v", st)
	}
	srv.Close()

	// Fresh process over the same state dir: resubmission dedupes
	// against the restored finished job, and its report is served from
	// the cache (the restarted process holds no report bytes in memory).
	srv2, err := New(Config{StateDir: dir, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := srv2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != adcc.JobDone || hit.ID != info.ID {
		t.Errorf("restart submit: status %s id %s, want done job %s", hit.Status, hit.ID, info.ID)
	}
	if got, err := srv2.Report(info.ID); err != nil || !bytes.Equal(got, want) {
		t.Errorf("job report after restart: %v", err)
	}
	if st := srv2.Stats(); st.Deduped != 1 || st.CampaignsRun != 0 || st.CellsExecuted != 0 {
		t.Errorf("restart stats %+v, want zero engine work", st)
	}
	srv2.Close()

	// With the job table gone (only the content-addressed cache left),
	// the same submission is answered straight from the cache.
	if err := os.RemoveAll(filepath.Join(dir, "jobs")); err != nil {
		t.Fatal(err)
	}
	srv3, err := New(Config{StateDir: dir, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	cached, err := srv3.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if cached.Status != adcc.JobDone || !cached.Cached {
		t.Errorf("cache submit: status %s cached %v, want done from cache", cached.Status, cached.Cached)
	}
	if cached.Injections != info.Injections || info.Injections == 0 {
		t.Errorf("cache hit reports %d injections, the computed job %d", cached.Injections, info.Injections)
	}
	got, err := srv3.Report(cached.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("cached report differs from original")
	}
	if st := srv3.Stats(); st.CacheHits != 1 || st.CampaignsRun != 0 || st.CellsExecuted != 0 {
		t.Errorf("cache stats %+v, want pure cache hit", st)
	}
}

// TestKillAndResume kills the daemon after exactly one shard checkpoint
// and restarts it over the same state directory: the job must resume
// from the persisted shard, re-execute only the remaining cells, and
// serve a report byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	want := directReport(t, spec)

	// One worker, so no other cell can complete while the checkpoint
	// hook holds the single worker hostage.
	srv, err := New(Config{StateDir: dir, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	first := make(chan struct{})
	// After the first shard persists, block the checkpoint path until
	// shutdown so exactly one shard is on disk when the process "dies".
	srv.testCellHook = func(ctx context.Context, _ string) {
		once.Do(func() { close(first) })
		<-ctx.Done()
	}
	info, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first
	srv.Close()

	srv2, err := New(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resumed, ok := srv2.Job(info.ID)
	if !ok {
		t.Fatalf("job %s not restored", info.ID)
	}
	if !resumed.Resumed {
		t.Error("restored job not marked resumed")
	}
	final := waitDone(t, srv2, info.ID)
	if final.Status != adcc.JobDone {
		t.Fatalf("resumed job: %s (%s)", final.Status, final.Error)
	}
	got, err := srv2.Report(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed report differs from uninterrupted run")
	}
	st := srv2.Stats()
	if st.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d", st.JobsResumed)
	}
	if want := int64(final.ShardsTotal - 1); st.CellsExecuted != want {
		t.Errorf("resume executed %d cells, want %d (one was checkpointed)", st.CellsExecuted, want)
	}
	// A resumed run splices restored aggregates that carry no rows, so
	// it records no columnar store artifact.
	if _, err := srv2.StoreArtifact(info.ID); err == nil {
		t.Error("resumed job served a store artifact; restored cells have no rows to store")
	}
}

// TestEventStreamMatchesDirect asserts the SSE stream carries exactly
// the deterministic engine events a direct run emits, in order, with
// shard_done markers interleaved and a terminal done frame.
func TestEventStreamMatchesDirect(t *testing.T) {
	spec := tinySpec()

	// Reference: encode the direct runner's events with the same wire
	// encoding the service uses.
	ref := newJob(adcc.JobInfo{})
	runner := adcc.New(nil, append(spec.Options(),
		adcc.WithParallelism(2), adcc.WithEventSink(adcc.SinkFunc(ref.appendEngineEvent)))...)
	if _, err := runner.RunCampaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	history, _, _, _ := ref.eventsFrom(0)
	wantEvents := decodeFrames(t, history)

	srv, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := adccclient.New(ts.URL, nil)
	info, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []adcc.StreamEvent
	var doneFrames int
	if err := c.Events(context.Background(), info.ID, -1, func(e adcc.StreamEvent) error {
		switch e.Type {
		case "done":
			doneFrames++
		case "shard_done":
		default:
			got = append(got, e)
		}
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	if doneFrames != 1 {
		t.Errorf("saw %d done frames, want 1", doneFrames)
	}
	if len(got) != len(wantEvents) {
		t.Fatalf("streamed %d engine events, direct run emitted %d", len(got), len(wantEvents))
	}
	for i := range got {
		if got[i].Type != wantEvents[i].Type || !bytes.Equal(got[i].Data, wantEvents[i].Data) {
			t.Fatalf("event %d differs:\n  got  %s %s\n  want %s %s",
				i, got[i].Type, got[i].Data, wantEvents[i].Type, wantEvents[i].Data)
		}
	}

	// Resuming mid-history replays exactly the tail.
	mid := len(wantEvents) / 2
	var tail []adcc.StreamEvent
	if err := c.Events(context.Background(), info.ID, mid, func(e adcc.StreamEvent) error {
		tail = append(tail, e)
		return nil
	}); err != nil {
		t.Fatalf("resumed Events: %v", err)
	}
	if len(tail) == 0 {
		t.Fatalf("resume from %d streamed no frames", mid)
	}
	if tail[0].Seq != mid+1 {
		t.Fatalf("resume from %d started at %d", mid, tail[0].Seq)
	}
}

// TestHTTPErrors covers the documented error responses.
func TestHTTPErrors(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&doc)
		msg, _ := doc["error"].(string)
		return resp.StatusCode, msg
	}
	if code, msg := post(`{"workloads":["bogus"]}`); code != http.StatusBadRequest || msg == "" {
		t.Errorf("unknown workload: %d %q", code, msg)
	}
	if code, msg := post(`{"workloads":["mc","bogus"]}`); code != http.StatusBadRequest || !strings.Contains(msg, `unknown workload "bogus"`) {
		t.Errorf("unknown workload beside a valid one: %d %q", code, msg)
	}
	if code, msg := post(`{"wrkloads":["mm"]}`); code != http.StatusBadRequest || !strings.Contains(msg, "wrkloads") {
		t.Errorf("unknown field: %d %q", code, msg)
	}
	if code, _ := post(`{`); code != http.StatusBadRequest {
		t.Errorf("truncated body: %d", code)
	}
	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/report", "/v1/campaigns/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStoreAndQueryEndpoints covers the result-store plane of the
// service: a fresh job's raw artifact is a valid columnar store whose
// row count matches the report, and the query endpoint's unfiltered
// report view is byte-identical to the served envelope.
func TestStoreAndQueryEndpoints(t *testing.T) {
	srv, err := New(Config{Parallel: 4})
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
	final := waitDone(t, srv, info.ID)
	if final.Status != adcc.JobDone {
		t.Fatalf("job: %s (%s)", final.Status, final.Error)
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	c := adccclient.New(ts.URL, nil)
	raw, err := c.Store(context.Background(), info.ID)
	if err != nil {
		t.Fatalf("client Store: %v", err)
	}
	st, err := adcc.OpenResultStoreBytes(raw)
	if err != nil {
		t.Fatalf("served artifact does not open: %v", err)
	}
	if st.TotalRows() != int64(final.Injections) {
		t.Errorf("store has %d rows, report counted %d injections", st.TotalRows(), final.Injections)
	}

	code, rebuilt := get("/v1/campaigns/" + info.ID + "/query?view=report")
	if code != http.StatusOK {
		t.Fatalf("GET query?view=report: %d %s", code, rebuilt)
	}
	served, err := srv.Report(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, served) {
		t.Errorf("query-rebuilt envelope differs from served report (%d vs %d bytes)",
			len(rebuilt), len(served))
	}

	agg, err := c.QueryAggregate(context.Background(), info.ID, adcc.StoreFilter{})
	if err != nil {
		t.Fatalf("client QueryAggregate: %v", err)
	}
	if agg.Rows != int64(final.Injections) {
		t.Errorf("aggregate covers %d rows, want %d", agg.Rows, final.Injections)
	}
	// Filtering to one outcome partitions the row count.
	var filtered int64
	for name, n := range agg.Outcomes {
		fa, err := c.QueryAggregate(context.Background(), info.ID, adcc.StoreFilter{Outcome: name})
		if err != nil {
			t.Fatalf("filtered QueryAggregate(%s): %v", name, err)
		}
		if fa.Rows != n {
			t.Errorf("outcome %s: filtered aggregate has %d rows, unfiltered counted %d", name, fa.Rows, n)
		}
		filtered += fa.Rows
	}
	if filtered != agg.Rows {
		t.Errorf("outcome partitions sum to %d of %d rows", filtered, agg.Rows)
	}

	// A filtered cells view returns a strict subset.
	code, cellsRaw := get("/v1/campaigns/" + info.ID + "/query?view=cells&scheme=" + srv.reg.SchemeNames()[0])
	if code != http.StatusOK {
		t.Fatalf("GET query?view=cells: %d %s", code, cellsRaw)
	}
	var cellsDoc struct {
		Cells []adcc.CampaignCell `json:"cells"`
	}
	if err := json.Unmarshal(cellsRaw, &cellsDoc); err != nil {
		t.Fatal(err)
	}
	if n := len(cellsDoc.Cells); n == 0 || n >= final.ShardsTotal {
		t.Errorf("filtered cells view returned %d of %d cells, want a strict non-empty subset",
			n, final.ShardsTotal)
	}

	// Error shapes: bad view and bad outcome filter are 400s.
	if code, body := get("/v1/campaigns/" + info.ID + "/query?view=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus view: %d %s", code, body)
	}
	if code, body := get("/v1/campaigns/" + info.ID + "/query?outcome=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus outcome filter: %d %s", code, body)
	}
	if code, _ := get("/v1/campaigns/nope/store"); code != http.StatusNotFound {
		t.Errorf("unknown job store: %d", code)
	}
}

// TestStoreArtifactPersistsAndEvicts covers the artifact's on-disk
// life cycle: written beside the cached envelope, served across a
// restart by a content-addressed hit, and evicted as a pair with it.
func TestStoreArtifactPersistsAndEvicts(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, Parallel: 4, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := srv.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, info.ID)
	artifact := filepath.Join(dir, "cache", info.CacheKey+".adccs")
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("artifact not persisted: %v", err)
	}
	want, err := srv.StoreArtifact(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// A restarted process answers the same spec from the cache and still
	// serves the artifact its original computation wrote.
	srv2, err := New(Config{StateDir: dir, Parallel: 4, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := srv2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := srv2.StoreArtifact(hit.ID); err != nil || !bytes.Equal(got, want) {
		t.Errorf("artifact after restart: %v (%d vs %d bytes)", err, len(got), len(want))
	}

	// A second distinct spec overflows the one-entry cache: the old
	// envelope and its artifact must go together.
	other, err := srv2.Submit(adcc.CampaignSpec{Workloads: []string{"mc"}, Scale: 0.02, InjectionsPerCell: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv2, other.ID)
	if _, err := os.Stat(artifact); !os.IsNotExist(err) {
		t.Errorf("evicted envelope left its artifact behind: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache", other.CacheKey+".adccs")); err != nil {
		t.Errorf("new artifact missing: %v", err)
	}
	srv2.Close()
}

// TestEventsOfJobLoadedAfterRestart: a job that finished before the
// server was restarted is registered from the state directory with no
// event history, and an event stream opened on it must end with its
// terminal done frame at once instead of waiting for a wake-up that
// never comes.
func TestEventsOfJobLoadedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := srv.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, info.ID)
	srv.Close()

	srv2, err := New(Config{StateDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var frames []adcc.StreamEvent
	err = adccclient.New(ts.URL, nil).Events(ctx, info.ID, -1, func(e adcc.StreamEvent) error {
		frames = append(frames, e)
		return nil
	})
	if err != nil {
		t.Fatalf("Events on a job loaded after restart: %v", err)
	}
	if len(frames) != 1 || frames[0].Type != "done" {
		t.Fatalf("frames %+v, want exactly the done frame", frames)
	}
	var final adcc.JobInfo
	if err := json.Unmarshal(frames[0].Data, &final); err != nil {
		t.Fatal(err)
	}
	if final.ID != info.ID || final.Status != adcc.JobDone {
		t.Errorf("done frame carries %+v, want finished job %s", final, info.ID)
	}
}
