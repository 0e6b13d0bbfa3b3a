package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
	"adcc/pkg/adcc/adccd"
)

// readsPerBlock is the number of read requests that follow every fresh
// submission: four request types in fixed rotation.
const readsPerBlock = 400

// requestTimeout bounds each unit of the service workload, so that a
// stream that never ends fails the unit and not the run's time limit.
const requestTimeout = 30 * time.Second

// verifyEvery is how often a fresh job's served report is compared with
// an in-process run of its spec; every other block is checked
// semantically.
const verifyEvery = 8

// service is an adccd server over a temporary state directory behind an
// httptest listener, driven through adccclient by one closed-loop
// client: one request in flight at any time.
type service struct {
	dir    string
	srv    *adccd.Server
	ts     *httptest.Server
	client *adccclient.Client
	scale  float64
	seed   int64
	reads  int

	// known is the finished job the reads go to.
	known       adcc.JobInfo
	knownSpec   adcc.CampaignSpec
	knownReport []byte // in-process report bytes of knownSpec
	knownCells  int

	// outputs of the last block
	pass      int
	fresh     adcc.JobInfo
	frames    int
	freshSpec adcc.CampaignSpec
	got       readOutputs
	// tamperReport, when set, edits served report bytes before they are
	// checked.
	tamperReport func([]byte) []byte

	// observations of the traced passes
	freshWall, readWall      time.Duration
	before                   adccd.Stats // server counters when the block began
	readUS, sseRate          []float64
	dedup, cacheHits, cellsX []float64 // per block
}

// readOutputs is what the last read batch fetched, one of each type.
type readOutputs struct {
	report []byte
	agg    adcc.StoreAggregate
	filter adcc.StoreFilter
	store  []byte
	frames int
}

func (s *service) spec(seed int64) adcc.CampaignSpec {
	return adcc.CampaignSpec{Scale: s.scale, Seed: seed, Workloads: []string{"kvlog", "stencil"}, Replay: true}
}

// runInProcess runs spec through the Runner, which is what every served
// report must equal byte for byte.
func runInProcess(spec adcc.CampaignSpec) ([]byte, error) {
	rep, err := adcc.New(nil, append(spec.Options(), adcc.WithParallelism(1))...).RunCampaign(context.Background())
	if err != nil {
		return nil, err
	}
	return adcc.NewCampaignReport(rep).EncodeJSON()
}

func buildService(cfg config) (*instance, error) {
	s, err := newService(cfg)
	if err != nil {
		return nil, err
	}
	return s.instance(), nil
}

func (s *service) instance() *instance {
	return &instance{
		close: s.close, observe: s.observe, layerMetrics: s.layerMetrics,
		units: []*unit{
			{name: "fresh", job: true, run: s.runFresh, check: s.checkFresh, ops: func() int { return 1 }},
			{name: "reads", run: s.runReads, check: s.checkReads, ops: func() int { return s.reads }},
		},
	}
}

// newService starts the server and runs the known job on it.
func newService(cfg config) (*service, error) {
	s := &service{scale: 0.25, seed: cfg.seed, reads: readsPerBlock}
	if cfg.quick {
		s.scale, s.reads = 0.05, 40
	}
	var err error
	if s.dir, err = os.MkdirTemp(cfg.dir, "adccd-*"); err != nil {
		return nil, err
	}
	if s.srv, err = adccd.New(adccd.Config{StateDir: s.dir, Parallel: 1, Jobs: 1}); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = adccclient.New(s.ts.URL, s.ts.Client())

	// The known job: submitted once, read many times.
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	s.knownSpec = s.spec(cfg.seed*1000 + 999)
	keys, err := adcc.CampaignCells(nil, s.knownSpec)
	if err != nil {
		s.close()
		return nil, err
	}
	s.knownCells = len(keys)
	info, err := s.client.Submit(ctx, s.knownSpec)
	if err == nil {
		s.known, err = s.client.Wait(ctx, info.ID, time.Millisecond)
	}
	if err == nil && s.known.Status != adcc.JobDone {
		err = fmt.Errorf("known job %s: %s", s.known.Status, s.known.Error)
	}
	if err == nil {
		s.knownReport, err = runInProcess(s.knownSpec)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// runFresh submits a spec the server has not seen, consumes its event
// stream, and waits for the job to be done.
func (s *service) runFresh(pass int, tr *tracer, parent int) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	s.pass, s.frames, s.before = pass, 0, s.srv.Stats()
	s.freshSpec = s.spec(s.seed*1000 + int64(pass))
	start := time.Now()
	step := func(name, layer string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.begin(name, layer, parent)
		defer tr.end(id)
		return fn()
	}
	var info adcc.JobInfo
	err := step("submit", "adccd", func() (err error) {
		info, err = s.client.Submit(ctx, s.freshSpec)
		return err
	})
	if err != nil {
		return err
	}
	if info.Cached {
		return fmt.Errorf("spec seed %d was not fresh", s.freshSpec.Seed)
	}
	err = step("events", "campaign+adccclient", func() error {
		return s.client.Events(ctx, info.ID, -1, func(adcc.StreamEvent) error {
			s.frames++
			return nil
		})
	})
	if err != nil {
		return err
	}
	err = step("wait", "adccd", func() (err error) {
		s.fresh, err = s.client.Wait(ctx, info.ID, time.Millisecond)
		return err
	})
	s.freshWall = time.Since(start)
	return err
}

func (s *service) checkFresh() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if s.fresh.Status != adcc.JobDone {
		return fmt.Errorf("fresh job %s: %s", s.fresh.Status, s.fresh.Error)
	}
	served, err := s.client.Report(ctx, s.fresh.ID)
	if err != nil {
		return err
	}
	if s.tamperReport != nil {
		served = s.tamperReport(served)
	}
	env, err := adcc.DecodeReport(served)
	if err != nil {
		return fmt.Errorf("served report: %w", err)
	}
	rep, err := env.CampaignReport()
	if err != nil {
		return fmt.Errorf("served report: %w", err)
	}
	if err := checkReport(rep, s.knownCells); err != nil {
		return fmt.Errorf("served report: %w", err)
	}
	if s.fresh.Injections != rep.Injections {
		return fmt.Errorf("job says %d injections, its report %d", s.fresh.Injections, rep.Injections)
	}
	agg, err := s.client.QueryAggregate(ctx, s.fresh.ID, adcc.StoreFilter{})
	if err != nil {
		return err
	}
	if agg.Rows != int64(rep.Injections) {
		return fmt.Errorf("store holds %d rows, report has %d injections", agg.Rows, rep.Injections)
	}
	if s.frames < rep.Injections {
		return fmt.Errorf("stream had %d frames for %d injections", s.frames, rep.Injections)
	}
	if s.pass%verifyEvery == 0 || s.tamperReport != nil {
		want, err := runInProcess(s.freshSpec)
		if err != nil {
			return err
		}
		if !bytes.Equal(served, want) {
			return fmt.Errorf("served report differs from an in-process run of the spec")
		}
	}
	return nil
}

// readFilters rotate through the query endpoint's filter shapes.
var readFilters = []adcc.StoreFilter{
	{},
	{Workload: "kvlog"},
	{Workload: "stencil", Scheme: adcc.SchemeAlgoNVM},
	{Outcome: "clean"},
	{Workload: "kvlog", System: "NVM-only", FaultModel: adcc.FaultFailStop},
}

// runReads sends the read batch to the known job: resubmission of its
// spec followed by the report, a filtered aggregate, the store artifact,
// and an event replay from the beginning, in fixed rotation.
func (s *service) runReads(_ int, tr *tracer, parent int) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	start := time.Now()
	var typeWall [4]time.Duration
	for i := 0; i < s.reads; i++ {
		kind := i % 4
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		var err error
		switch kind {
		case 0:
			var info adcc.JobInfo
			if info, err = s.client.Submit(ctx, s.knownSpec); err == nil {
				if info.CacheKey != s.known.CacheKey || info.Status != adcc.JobDone {
					err = fmt.Errorf("resubmission answered by job %s (%s)", info.ID, info.Status)
				} else {
					s.got.report, err = s.client.Report(ctx, info.ID)
				}
			}
		case 1:
			s.got.filter = readFilters[(i/4)%len(readFilters)]
			s.got.agg, err = s.client.QueryAggregate(ctx, s.known.ID, s.got.filter)
		case 2:
			s.got.store, err = s.client.Store(ctx, s.known.ID)
		case 3:
			s.got.frames = 0
			err = s.client.Events(ctx, s.known.ID, -1, func(adcc.StreamEvent) error {
				s.got.frames++
				return nil
			})
		}
		if err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		if tr != nil {
			typeWall[kind] += time.Since(t0)
		}
	}
	s.readWall = time.Since(start)
	if tr != nil {
		// One span per request type, laid end to end: the batch is a
		// rotation, so the spans show shares, not positions.
		edge := tr.now() - int64(s.readWall)
		for k, name := range []string{"resubmit+report", "query", "store", "events replay"} {
			tr.add(name, "adccd", parent, edge, edge+int64(typeWall[k]))
			edge += int64(typeWall[k])
		}
	}
	return nil
}

func (s *service) checkReads() error {
	if !bytes.Equal(s.got.report, s.knownReport) {
		return fmt.Errorf("served report of the known job differs from an in-process run of its spec")
	}
	st, err := adcc.OpenResultStoreBytes(s.got.store)
	if err != nil {
		return fmt.Errorf("served store: %w", err)
	}
	if st.TotalRows() != int64(s.known.Injections) {
		return fmt.Errorf("served store has %d rows, the job %d injections", st.TotalRows(), s.known.Injections)
	}
	want, err := st.Aggregate(s.got.filter)
	if err != nil {
		return err
	}
	if s.got.agg.Rows != want.Rows || s.got.agg.Rows == 0 {
		return fmt.Errorf("query %+v: %d rows served, %d in the store", s.got.filter, s.got.agg.Rows, want.Rows)
	}
	if s.got.frames < s.known.Injections {
		return fmt.Errorf("event replay had %d frames for %d injections", s.got.frames, s.known.Injections)
	}
	return nil
}

// observe records, per traced block, the read path's reference time per
// request, the event rate of the fresh job's stream, and how far the
// server's counters moved (exact: a block is one run, reads/4 cache
// hits, no deduplication).
func (s *service) observe(samples []sample) {
	s.readUS = append(s.readUS, samples[1].refSeconds(s.readWall)*1e6/float64(s.reads))
	s.sseRate = append(s.sseRate, float64(s.frames)/samples[0].refSeconds(s.freshWall))
	st := s.srv.Stats()
	s.dedup = append(s.dedup, float64(st.Deduped-s.before.Deduped))
	s.cacheHits = append(s.cacheHits, float64(st.CacheHits-s.before.CacheHits))
	s.cellsX = append(s.cellsX, float64(st.CellsExecuted-s.before.CellsExecuted))
}

func (s *service) layerMetrics() map[string]float64 {
	return map[string]float64{
		"service.read_us_per_req":     median(s.readUS),
		"adccclient.sse_events_per_s": median(s.sseRate),
		"adccd.dedup_hits":            median(s.dedup),
		"adccd.cache_hits":            median(s.cacheHits),
		"adccd.cells_executed":        median(s.cellsX),
	}
}
