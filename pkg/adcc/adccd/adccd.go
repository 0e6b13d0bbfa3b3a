// Package adccd implements the campaign service behind the adccd
// daemon: a long-running HTTP/JSON front end over pkg/adcc that accepts
// campaign specs (POST /v1/campaigns), fans their shards across a
// bounded worker pool, streams the deterministic event layer to clients
// over SSE, persists per-shard progress so a killed daemon resumes
// in-flight campaigns instead of restarting them, and serves finished
// adcc-report/v1 envelopes from a content-addressed result cache.
// Fresh runs also record the columnar per-injection result store
// (internal/resultstore via adcc.WithCampaignStore), served raw at
// /store and queried server-side at /query — filters, aggregates with
// percentiles, and an envelope rebuild that is byte-identical to the
// cached report.
//
// The service adds no computation of its own: every report it serves is
// byte-identical to the same spec run directly through
// adcc.Runner.RunCampaign, whatever the parallelism, cache state, or
// number of resume cycles (a spec's Replay field is accepted for wire
// compatibility and ignored: there is one campaign engine) — the
// determinism contract of the layers below is what makes caching and
// checkpoint splicing sound. See docs/HTTP_API.md for the wire
// reference and docs/OPERATIONS.md for running the daemon.
package adccd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"adcc/pkg/adcc"
)

// Config parameterizes a Server.
type Config struct {
	// StateDir is the persistence root (job specs, shard checkpoints,
	// the result cache). Empty means ephemeral: everything lives in
	// memory and nothing survives a restart — fine for tests, wrong for
	// a daemon. See docs/OPERATIONS.md for the on-disk layout.
	StateDir string
	// Parallel bounds how many shards of one campaign execute
	// concurrently (adcc.WithParallelism); <= 0 means GOMAXPROCS.
	Parallel int
	// Jobs bounds how many campaigns execute concurrently; <= 0 means 1.
	// Queued jobs start in submission order as slots free up.
	Jobs int
	// CacheEntries bounds the result cache (least-recently-used entries
	// are evicted past the limit); <= 0 means unbounded.
	CacheEntries int
	// Registry resolves workload and scheme names; nil means a fresh
	// built-in registry. Custom schemes and workloads registered here
	// become sweepable by naming them in submitted specs.
	Registry *adcc.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Stats counts service activity since process start; read a snapshot
// with Server.Stats. The counters make cache behaviour observable:
// a submission that does zero engine work bumps CacheHits or Deduped
// and leaves CampaignsRun and CellsExecuted unchanged.
type Stats struct {
	// Submitted counts accepted POST /v1/campaigns requests.
	Submitted int64
	// Deduped counts submissions answered by an existing live job with
	// the same cache key.
	Deduped int64
	// CacheHits counts submissions answered from the on-disk result
	// cache without running the campaign.
	CacheHits int64
	// CampaignsRun counts campaign executions started (fresh or
	// resumed).
	CampaignsRun int64
	// CellsExecuted counts sweep cells actually computed (checkpointed
	// cells adopted on resume are not re-counted).
	CellsExecuted int64
	// JobsResumed counts jobs continued from persisted shard progress
	// at daemon startup.
	JobsResumed int64
}

// Server is the campaign service. Build one with New, mount Handler on
// an http.Server, and Close it to shut down gracefully: running
// campaigns stop at the next shard boundary, their completed shards
// stay on disk, and the next New over the same state directory resumes
// them.
type Server struct {
	cfg   Config
	reg   *adcc.Registry
	store *store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{}

	mu    sync.Mutex
	jobs  map[string]*job
	byKey map[string]*job
	order []string

	stats struct {
		submitted, deduped, cacheHits atomic.Int64
		campaignsRun, cellsExecuted   atomic.Int64
		jobsResumed                   atomic.Int64
	}

	// testCellHook, when set (tests only), runs after each shard
	// checkpoint is persisted, before the next cell executes.
	testCellHook func(ctx context.Context, cellKey string)
}

// New builds a Server over cfg, loading persisted state and resuming
// any job that was queued or running when the previous process died.
func New(cfg Config) (*Server, error) {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = adcc.NewRegistry()
	}
	st, err := newStore(cfg.StateDir, cfg.CacheEntries)
	if err != nil {
		return nil, fmt.Errorf("adccd: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		store:  st,
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, cfg.Jobs),
		jobs:   map[string]*job{},
		byKey:  map[string]*job{},
	}
	if err := s.loadState(); err != nil {
		cancel()
		return nil, fmt.Errorf("adccd: %w", err)
	}
	return s, nil
}

// Close shuts the service down: in-flight campaigns are cancelled (their
// persisted shard progress is kept for the next start), event streams
// terminate, and Close returns once every job goroutine has exited.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return nil
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:     s.stats.submitted.Load(),
		Deduped:       s.stats.deduped.Load(),
		CacheHits:     s.stats.cacheHits.Load(),
		CampaignsRun:  s.stats.campaignsRun.Load(),
		CellsExecuted: s.stats.cellsExecuted.Load(),
		JobsResumed:   s.stats.jobsResumed.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates spec, canonicalizes it, and returns the job serving
// its result: an existing live job with the same cache key (submissions
// are idempotent per key), a completed job answered straight from the
// result cache, or a freshly queued campaign. It is the programmatic
// form of POST /v1/campaigns.
func (s *Server) Submit(spec adcc.CampaignSpec) (adcc.JobInfo, error) {
	canon := spec.Canonical()
	cells, err := adcc.CampaignCells(s.reg, canon)
	if err != nil {
		return adcc.JobInfo{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	key := canon.CacheKey()
	s.stats.submitted.Add(1)

	s.mu.Lock()
	if prev := s.byKey[key]; prev != nil && prev.status() != adcc.JobFailed {
		s.mu.Unlock()
		s.stats.deduped.Add(1)
		return prev.snapshot(), nil
	}
	j := s.newJobLocked(canon, key, len(cells))
	if b, ok := s.store.cacheGet(key); ok {
		// Content-addressed hit: the result of this exact spec+seed is
		// already on disk; serve it without any engine work.
		j.info.Cached = true
		j.completeLocked(b, cachedInjections(b))
		s.mu.Unlock()
		s.stats.cacheHits.Add(1)
		s.store.putJob(j.snapshot())
		s.logf("job %s: cache hit for %s", j.info.ID, shortKey(key))
		return j.snapshot(), nil
	}
	s.mu.Unlock()
	s.store.putJob(j.snapshot())
	s.logf("job %s: queued (%d shards, key %s)", j.info.ID, len(cells), shortKey(key))
	s.startJob(j, nil)
	return j.snapshot(), nil
}

// Job returns the status of one job by ID.
func (s *Server) Job(id string) (adcc.JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return adcc.JobInfo{}, false
	}
	return j.snapshot(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []adcc.JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]adcc.JobInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Report returns the finished adcc-report/v1 envelope of a job.
func (s *Server) Report(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, msg: "unknown job " + id}
	}
	switch j.status() {
	case adcc.JobFailed:
		return nil, &httpError{code: http.StatusConflict, msg: "job failed: " + j.snapshot().Error}
	case adcc.JobDone:
	default:
		return nil, &httpError{code: http.StatusConflict, msg: "job not finished (status " + string(j.status()) + ")"}
	}
	if b := j.reportBytes(); b != nil {
		return b, nil
	}
	// Completed in an earlier process: the report lives in the cache.
	if b, ok := s.store.cacheGet(j.snapshot().CacheKey); ok {
		return b, nil
	}
	return nil, &httpError{code: http.StatusGone, msg: "report evicted from cache; resubmit the spec to recompute"}
}

// StoreArtifact returns the columnar result store of a finished job:
// the raw per-injection rows its report was aggregated from, in the
// format adcc.OpenResultStoreBytes (and the adccquery CLI) reads.
// Artifacts are content-addressed like reports, so a cache-hit job
// serves the store its original computation wrote. Jobs resumed from
// shard checkpoints have no artifact (restored cells carry no rows).
func (s *Server) StoreArtifact(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, msg: "unknown job " + id}
	}
	switch j.status() {
	case adcc.JobFailed:
		return nil, &httpError{code: http.StatusConflict, msg: "job failed: " + j.snapshot().Error}
	case adcc.JobDone:
	default:
		return nil, &httpError{code: http.StatusConflict, msg: "job not finished (status " + string(j.status()) + ")"}
	}
	if b, ok := s.store.storeGet(j.snapshot().CacheKey); ok {
		return b, nil
	}
	return nil, &httpError{code: http.StatusNotFound,
		msg: "no store artifact for job " + id + " (jobs resumed from checkpoints record none, and evicted artifacts leave with their cached report)"}
}

// newJobLocked registers a job record; the caller holds s.mu.
func (s *Server) newJobLocked(spec adcc.CampaignSpec, key string, shards int) *job {
	j := newJob(adcc.JobInfo{
		ID:          newJobID(),
		Status:      adcc.JobQueued,
		Spec:        spec,
		CacheKey:    key,
		ShardsTotal: shards,
	})
	s.jobs[j.info.ID] = j
	s.byKey[key] = j
	s.order = append(s.order, j.info.ID)
	return j
}

// registerLoadedLocked registers a job restored from disk; the caller
// holds s.mu. Completed jobs win the cache-key slot over older failed
// ones regardless of scan order.
func (s *Server) registerLoadedLocked(j *job) {
	s.jobs[j.info.ID] = j
	if prev := s.byKey[j.info.CacheKey]; prev == nil || prev.status() == adcc.JobFailed {
		s.byKey[j.info.CacheKey] = j
	}
	s.order = append(s.order, j.info.ID)
}

// loadState restores jobs from the state directory: finished jobs are
// registered as-is, interrupted ones resume from their persisted shard
// checkpoints.
func (s *Server) loadState() error {
	loaded, err := s.store.loadJobs()
	if err != nil {
		return err
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].info.ID < loaded[j].info.ID })
	for _, lj := range loaded {
		j := newJob(lj.info)
		switch j.info.Status {
		case adcc.JobDone, adcc.JobFailed:
			// Terminal before the restart: an event stream opened on it
			// now has only its done frame to send.
			j.finishLocked()
			s.mu.Lock()
			s.registerLoadedLocked(j)
			s.mu.Unlock()
			continue
		}
		// Interrupted mid-campaign. If some other job already cached the
		// same result, adopt it; otherwise resume from the shards.
		if b, ok := s.store.cacheGet(j.info.CacheKey); ok {
			j.info.Cached = true
			j.completeLocked(b, cachedInjections(b))
			s.mu.Lock()
			s.registerLoadedLocked(j)
			s.mu.Unlock()
			s.store.putJob(j.snapshot())
			continue
		}
		j.info.Status = adcc.JobQueued
		j.info.Resumed = true
		j.info.ShardsDone = len(lj.shards)
		s.mu.Lock()
		s.registerLoadedLocked(j)
		s.mu.Unlock()
		s.stats.jobsResumed.Add(1)
		s.logf("job %s: resuming with %d/%d shards checkpointed",
			j.info.ID, len(lj.shards), j.info.ShardsTotal)
		s.startJob(j, lj.shards)
	}
	return nil
}

// startJob runs j's campaign on a worker slot. completed carries the
// shard checkpoints a resumed job adopts (nil for fresh jobs).
func (s *Server) startJob(j *job, completed map[string]adcc.CampaignCell) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			// Shutdown while queued: the persisted job stays queued and
			// the next start requeues it.
			return
		}
		defer func() { <-s.sem }()
		s.runJob(j, completed)
	}()
}

// runJob executes one campaign, checkpointing every completed shard and
// finishing with the enveloped report in the result cache.
func (s *Server) runJob(j *job, completed map[string]adcc.CampaignCell) {
	j.setStatus(adcc.JobRunning)
	s.store.putJob(j.snapshot())
	s.stats.campaignsRun.Add(1)

	opts := append(j.spec().Options(),
		adcc.WithParallelism(s.cfg.Parallel),
		adcc.WithEventSink(adcc.SinkFunc(j.appendEngineEvent)),
		adcc.WithCampaignResume(completed),
		adcc.WithCampaignCheckpoint(func(c adcc.CampaignCell) {
			s.store.putShard(j.info.ID, c)
			j.shardDone(c.Key())
			s.stats.cellsExecuted.Add(1)
			if s.testCellHook != nil {
				s.testCellHook(s.ctx, c.Key())
			}
		}),
	)
	// Fresh jobs also record the per-injection columnar store the query
	// endpoints serve. Resumed jobs cannot: restored shard aggregates
	// carry no rows (the engine rejects a row sink combined with them),
	// so their key serves the envelope only.
	storeTmp := ""
	if len(completed) == 0 {
		storeTmp = s.store.storeTempPath(j.info.ID)
		opts = append(opts, adcc.WithCampaignStore(storeTmp))
	}
	rep, err := adcc.New(s.reg, opts...).RunCampaign(s.ctx)
	if err != nil {
		if storeTmp != "" {
			s.store.storeDiscard(storeTmp)
		}
		if s.ctx.Err() != nil {
			// Graceful shutdown: leave the job persisted as running so the
			// next start resumes from the checkpoints written so far.
			s.logf("job %s: interrupted by shutdown (%d/%d shards checkpointed)",
				j.info.ID, j.snapshot().ShardsDone, j.info.ShardsTotal)
			return
		}
		j.fail(err)
		s.store.putJob(j.snapshot())
		s.logf("job %s: failed: %v", j.info.ID, err)
		return
	}
	env := adcc.NewCampaignReport(rep)
	b, err := env.EncodeJSON()
	if err != nil {
		if storeTmp != "" {
			s.store.storeDiscard(storeTmp)
		}
		j.fail(err)
		s.store.putJob(j.snapshot())
		return
	}
	if err := s.store.cachePut(j.snapshot().CacheKey, b); err != nil {
		s.logf("job %s: cache write: %v", j.info.ID, err)
	}
	if storeTmp != "" {
		if err := s.store.storeAdopt(j.snapshot().CacheKey, storeTmp); err != nil {
			s.store.storeDiscard(storeTmp)
			s.logf("job %s: store artifact write: %v", j.info.ID, err)
		}
	}
	j.complete(b, rep.Injections)
	s.store.putJob(j.snapshot())
	s.store.dropShards(j.info.ID)
	s.logf("job %s: done (%d injections)", j.info.ID, rep.Injections)
}

// cachedInjections reads the total injection count out of a cached
// envelope, for a job answered from the cache. Only that one field is
// decoded. The decode error is dropped because the job serves the
// cached bytes as they are either way; an envelope that does not parse
// only reports 0.
func cachedInjections(b []byte) int {
	var env struct {
		Campaign struct {
			Injections int `json:"injections"`
		} `json:"campaign"`
	}
	_ = json.Unmarshal(b, &env)
	return env.Campaign.Injections
}

// newJobID returns a fresh random job identifier.
func newJobID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("adccd: rand: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}

// shortKey abbreviates a cache key for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
