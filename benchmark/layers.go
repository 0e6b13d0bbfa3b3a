package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"adcc/internal/cache"
	"adcc/internal/campaign"
	"adcc/internal/ckpt"
	"adcc/internal/crash"
	"adcc/internal/mem"
	"adcc/internal/pmem"
	"adcc/internal/resultstore"
	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
	"adcc/pkg/adcc/adccd"
)

// The layer drivers call each layer's exported functions directly, on
// state taken from the workloads (the cg machine paused by
// Emulator.Record at its seeded crash points, the store a campaign
// wrote, a served job). They do not depend on the workload being traced:
// their numbers describe the code, and say where a change to one layer
// will show. Every driver unit is timed like a workload unit, bracketed
// by calibration slices, and records a child span per call or batch.

// driverReps is how many times each driver unit runs; its metrics are
// medians over them.
const driverReps = 5

// driverUnit collects the named timers of one execution of a driver.
type driverUnit struct {
	tr    *tracer
	cur   int // span the next timer nests under
	wall  map[string]time.Duration
	calls map[string]int
}

// time runs f as a child span of the current span and adds its wall time
// and call count to the named timer. Timers nest: spans opened inside f
// become children of this one.
func (u *driverUnit) time(name, layer string, calls int, f func()) {
	id := u.tr.begin(name, layer, u.cur)
	outer := u.cur
	u.cur = id
	start := time.Now()
	f()
	d := time.Since(start)
	u.cur = outer
	u.tr.end(id)
	u.wall[name] += d
	u.calls[name] += calls
}

// layerEnv is what the drivers share.
type layerEnv struct {
	r      *runner
	parent int
	out    map[string]float64
	errs   []string
}

// drive runs fn driverReps times as a bracketed unit and returns, per
// timer, the median reference seconds per call.
func (e *layerEnv) drive(name string, fn func(u *driverUnit) error) map[string]float64 {
	perTimer := map[string][]float64{}
	for rep := 0; rep < e.reps(); rep++ {
		u := &driverUnit{tr: e.r.tr, wall: map[string]time.Duration{}, calls: map[string]int{}}
		var err error
		s := e.r.m.measure(func() {
			u.cur = u.tr.begin(name, "bench", e.parent)
			err = fn(u)
			u.tr.end(u.cur)
		})
		if err != nil {
			e.errs = append(e.errs, fmt.Sprintf("layer driver %s: %v", name, err))
			continue
		}
		for t, d := range u.wall {
			if u.calls[t] > 0 {
				perTimer[t] = append(perTimer[t], s.refSeconds(d)/float64(u.calls[t]))
			}
		}
	}
	out := map[string]float64{}
	for t, v := range perTimer {
		out[t] = median(v)
	}
	return out
}

func (e *layerEnv) reps() int {
	if e.r.cfg.quick {
		return 1
	}
	return driverReps
}

// size shrinks a driver's iteration count for a smoke run.
func (e *layerEnv) size(n int) int {
	if e.r.cfg.quick {
		return max(n/50, 4)
	}
	return n
}

// runLayerDrivers runs every driver and stores its metrics in out. A
// driver that fails a check counts as one failed operation.
func runLayerDrivers(r *runner, out map[string]float64) {
	e := &layerEnv{r: r, out: out}
	e.parent = r.tr.begin("layer drivers", "bench", r.root)
	drivers := []func(*layerEnv){driveMemorySystem, driveCrash, driveFamilies, driveMechanisms, driveResultPlane, driveService}
	for _, drive := range drivers {
		drive(e)
	}
	r.tr.end(e.parent)
	r.res.attempted += len(drivers)
	for _, msg := range e.errs {
		r.res.fail(1, "%s", msg)
	}
}

// simMachine is the default platform of the kernel micro-benchmarks.
func simMachine(kind crash.SystemKind) *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{System: kind, Cache: cache.DefaultConfig()})
}

// driveMemorySystem times the cache model's three hot paths — a hit,
// a streaming store with eviction and writeback, a store plus a line
// flush — and the memory system's cost function below it.
func driveMemorySystem(e *layerEnv) {
	loads, stores, flushes, costs := e.size(4_000_000), e.size(1_500_000), e.size(800_000), e.size(4_000_000)
	var sink int64
	t := e.drive("memory system", func(u *driverUnit) error {
		var m, h *crash.Machine
		var hot, big, tiered *mem.F64
		u.time("setup", "bench", 1, func() {
			m, h = simMachine(crash.NVMOnly), simMachine(crash.Hetero)
			hot = m.Heap.AllocF64("hot", 1024)
			big = m.Heap.AllocF64("big", 1<<20)
			tiered = h.Heap.AllocF64("tiered", 1<<19)
			h.TierRegion(tiered)
		})
		u.time("load", "cache", loads, func() {
			for i := 0; i < loads; i++ {
				_ = hot.At(i & 1023)
			}
		})
		u.time("stream_store", "cache", stores, func() {
			for i := 0; i < stores; i++ {
				big.Set(i&(1<<20-1), float64(i))
			}
		})
		u.time("flush", "cache", flushes, func() {
			for i := 0; i < flushes; i++ {
				idx := i & 1023
				hot.Set(idx, float64(i))
				m.Persist(hot.Addr(idx), 8)
			}
		})
		u.time("line_cost", "nvm", costs, func() {
			base, span := tiered.Base(), tiered.Bytes()
			for i := 0; i < costs; i += 2 {
				a := base + mem.Addr((i*4160)%span).LineAddr()
				sink += h.Mem.ReadCost(a, mem.LineSize) + h.Mem.WriteCost(a, mem.LineSize)
			}
		})
		return nil
	})
	_ = sink
	e.out["cache.load_ns"] = t["load"] * 1e9
	e.out["cache.stream_store_ns"] = t["stream_store"] * 1e9
	e.out["cache.flush_ns"] = t["flush"] * 1e9
	e.out["nvm.line_cost_ns"] = t["line_cost"] * 1e9
}

// campaignMachine is the platform the campaign builds for its cells: a
// 1 MB LLC under the scheme's system.
func campaignMachine(kind crash.SystemKind) *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: kind,
		Cache: cache.Config{
			SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitNS: 4,
			FlushChargesClean: true, PrefetchStreams: 16,
		},
	})
}

// study is a registry workload prepared on a fresh machine.
type study struct {
	m  *crash.Machine
	em *crash.Emulator
	w  adcc.Workload
}

func (s *study) run() { s.w.Run(s.w.Start()) }

func newStudy(reg *adcc.Registry, workload, scheme string, scale float64) (*study, error) {
	spec, ok := reg.Workload(workload)
	if !ok {
		return nil, fmt.Errorf("no workload %q", workload)
	}
	sc := reg.MustScheme(scheme)
	w, err := spec.New(sc, scale)
	if err != nil {
		return nil, err
	}
	s := &study{m: campaignMachine(sc.System()), w: w}
	s.em = crash.NewEmulator(s.m)
	return s, w.Prepare(s.m, s.em)
}

// crashPoints is the number of seeded crash points the crash driver
// pauses at: the campaign's per-cell count at scale 1.0.
const crashPoints = 120

// driveCrash takes the algorithm-directed cg study through the stages of
// one replay cell, each alone: the profiling run, a recording run with a
// no-op capture, recording runs whose capture takes the copy-on-write
// snapshot the campaign takes (fail-stop, then under the torn-line
// model), the restore of every captured state onto a fork machine, and
// the four fault overlays at every point. The heap's image snapshot and
// restore, the layer below, are timed the same way.
func driveCrash(e *layerEnv) {
	reg := adcc.NewRegistry()
	scale := 1.0
	if e.r.cfg.quick {
		scale = 0.1
	}
	fresh := func(u *driverUnit) (s *study, err error) {
		u.time("setup", "bench", 1, func() { s, err = newStudy(reg, adcc.WorkloadCG, adcc.SchemeAlgoNVM, scale) })
		return s, err
	}
	faultNames := []string{"torn", "reorder", "bitflip", "eadr"}
	faults := map[string]crash.FaultModel{}
	for _, name := range faultNames {
		f, err := crash.ParseFaultModel(name)
		if err != nil {
			e.errs = append(e.errs, err.Error())
			return
		}
		f.Seed = 7
		faults[name] = f
	}
	var versionHits, hitRatio float64
	t := e.drive("crash", func(u *driverUnit) error {
		s, err := fresh(u)
		if err != nil {
			return err
		}
		var prof crash.RunProfile
		u.time("profile", "crash+workload", 1, func() { prof = s.em.Profile(s.run) })
		st := s.m.LLC.Stats()
		hitRatio = float64(st.LineHits) / float64(st.LineHits+st.LineMisses)
		points := prof.Points(crashPoints, 1)

		if s, err = fresh(u); err != nil {
			return err
		}
		u.time("record", "crash+workload", 1, func() { s.em.Record(s.run, points, func(int) {}) })

		// Fail-stop capture, with the version fast path counted the way
		// the campaign uses it.
		if s, err = fresh(u); err != nil {
			return err
		}
		var states []*crash.CrashState
		hits, lastVer := 0, uint64(0)
		u.time("record+capture", "crash+workload", 0, func() {
			var prev *crash.CrashState
			s.em.Record(s.run, points, func(int) {
				if v := s.m.StateVersion(); prev != nil && v == lastVer {
					hits++
				} else {
					lastVer = v
				}
				u.time("capture", "crash", 1, func() { prev = s.m.CrashSnapshot(prev) })
				states = append(states, prev)
			})
		})
		versionHits = float64(hits)

		fork, err := fresh(u)
		if err != nil {
			return err
		}
		u.time("restore", "crash", len(states), func() {
			for _, st := range states {
				fork.m.RestoreCrash(st)
			}
		})

		if s, err = fresh(u); err != nil {
			return err
		}
		u.time("record+capture_fault", "crash+workload", 0, func() {
			var prev *crash.CrashState
			s.em.Record(s.run, points, func(int) {
				u.time("capture_fault", "crash", 1, func() {
					prev, err = s.m.CrashSnapshotFault(prev, faults["torn"], s.em.OpCount())
				})
			})
		})
		if err != nil {
			return err
		}

		if s, err = fresh(u); err != nil {
			return err
		}
		u.time("record+overlays", "crash+workload", 0, func() {
			s.em.Record(s.run, points, func(int) {
				for _, name := range faultNames {
					u.time("overlay_"+name, "crash", 1, func() {
						if _, oerr := s.m.FaultOverlay(faults[name], s.em.OpCount()); oerr != nil {
							err = oerr
						}
					})
				}
			})
		})
		if err != nil {
			return err
		}

		// The heap layer alone: image snapshots at every point, then
		// their restore onto the fork's heap.
		if s, err = fresh(u); err != nil {
			return err
		}
		var images []*mem.ImageState
		u.time("record+snapshot_images", "crash+workload", 0, func() {
			var prev *mem.ImageState
			s.em.Record(s.run, points, func(int) {
				u.time("snapshot_images", "mem", 1, func() { prev = s.m.Heap.SnapshotImages(prev) })
				images = append(images, prev)
			})
		})
		u.time("restore_images", "mem", len(images), func() {
			for _, img := range images {
				fork.m.Heap.RestoreImages(img)
			}
		})
		return nil
	})
	e.out["cache.hit_ratio"] = hitRatio
	e.out["crash.state_version_hits"] = versionHits
	e.out["crash.profile_ms"] = t["profile"] * 1e3
	e.out["crash.record_ms"] = t["record"] * 1e3
	e.out["crash.capture_us"] = t["capture"] * 1e6
	e.out["crash.restore_us"] = t["restore"] * 1e6
	e.out["crash.capture_fault_us"] = t["capture_fault"] * 1e6
	for _, name := range faultNames {
		e.out["crash.fault_overlay_"+name+"_us"] = t["overlay_"+name] * 1e6
	}
	e.out["mem.snapshot_images_us"] = t["snapshot_images"] * 1e6
	e.out["mem.restore_images_us"] = t["restore_images"] * 1e6
}

// driveFamilies runs every workload family crash-free under the native
// scheme and reports host time per simulated memory operation, then
// crashes the algorithm-directed variant of three of them in mid-run
// and times its recovery.
func driveFamilies(e *layerEnv) {
	reg := adcc.NewRegistry()
	families := []struct {
		workload, runMetric, recoverMetric string
		scale                              float64
	}{
		{adcc.WorkloadCG, "core.cg_ns_per_simop", "core.cg_recover_ms", 1.0},
		{adcc.WorkloadMM, "core.mm_ns_per_simop", "", 0.5},
		{adcc.WorkloadMC, "core.mc_ns_per_simop", "", 0.25},
		{adcc.WorkloadStencil, "stencil.ns_per_simop", "stencil.recover_ms", 1.0},
		{adcc.WorkloadKVLog, "kvlog.ns_per_simop", "kvlog.recover_ms", 1.0},
	}
	for _, f := range families {
		scale := f.scale
		if e.r.cfg.quick {
			scale = 0.1
		}
		t := e.drive("family "+f.workload, func(u *driverUnit) error {
			var s *study
			var err error
			u.time("setup", "bench", 1, func() { s, err = newStudy(reg, f.workload, adcc.SchemeNative, scale) })
			if err != nil {
				return err
			}
			var ops int64
			u.time("run", f.workload, 0, func() { ops = s.em.Profile(s.run).Ops })
			u.calls["run"] = int(ops)
			u.time("verify", f.workload, 0, func() { err = s.w.Verify() })
			if err != nil {
				return fmt.Errorf("crash-free run: %w", err)
			}
			if f.recoverMetric == "" {
				return nil
			}
			u.time("setup", "bench", 1, func() { s, err = newStudy(reg, f.workload, adcc.SchemeAlgoNVM, scale) })
			if err != nil {
				return err
			}
			var from int64
			u.time("run to crash", f.workload, 0, func() {
				// The algorithm-directed variant issues more operations
				// than the native one, so half the native count is inside
				// its run.
				s.em.CrashAtOp(ops / 2)
				if !s.em.Run(s.run) {
					err = fmt.Errorf("crash at op %d did not fire", ops/2)
				}
			})
			if err != nil {
				return err
			}
			u.time("recover", f.workload, 1, func() { from, err = s.w.Recover() })
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			u.time("resume", f.workload, 0, func() {
				s.em.Disarm()
				s.em.Run(func() { s.w.Run(from) })
			})
			u.time("verify", f.workload, 0, func() { err = s.w.Verify() })
			if err != nil {
				return fmt.Errorf("recovered run: %w", err)
			}
			return nil
		})
		e.out[f.runMetric] = t["run"] * 1e9
		if f.recoverMetric != "" {
			e.out[f.recoverMetric] = t["recover"] * 1e3
		}
	}
}

// driveMechanisms times the two conventional mechanisms the baselines
// pay for: a memory-based checkpoint of a 1 MB region and a single-line
// undo-log transaction.
func driveMechanisms(e *layerEnv) {
	ckpts, txs := e.size(200), e.size(400_000)
	t := e.drive("mechanisms", func(u *driverUnit) error {
		var m *crash.Machine
		var c *ckpt.Checkpointer
		var p *pmem.Pool
		var region, line *mem.F64
		u.time("setup", "bench", 1, func() {
			m = simMachine(crash.NVMOnly)
			c = ckpt.NewNVM(m)
			region = m.Heap.AllocF64("region", 128<<10)
			p = pmem.NewPool(m, 1<<20)
			line = m.Heap.AllocF64("line", 1024)
			p.RegisterF64(line)
		})
		u.time("checkpoint", "ckpt", ckpts, func() {
			for i := 0; i < ckpts; i++ {
				c.Checkpoint(int64(i), region)
			}
		})
		u.time("tx", "pmem", txs, func() {
			for i := 0; i < txs; i++ {
				tx := p.Begin()
				tx.SetF64(line, i&1023, float64(i))
				tx.Commit()
			}
		})
		return nil
	})
	e.out["ckpt.checkpoint_us"] = t["checkpoint"] * 1e6
	e.out["pmem.tx_us"] = t["tx"] * 1e6
}

// resultPlaneSpec is the campaign whose rows and report the result
// plane drivers work on: the service workload's fresh job.
func resultPlaneSpec(cfg config) adcc.CampaignSpec {
	spec := adcc.CampaignSpec{Scale: 0.25, Seed: cfg.seed, Workloads: []string{"kvlog", "stencil"}, Replay: true}
	if cfg.quick {
		spec.Scale = 0.05
	}
	return spec
}

// driveResultPlane times the columnar store and the report envelope on
// what one campaign wrote: re-encoding its rows (which must reproduce
// the file), opening, scanning and aggregating the store, and encoding
// and decoding the report.
func driveResultPlane(e *layerEnv) {
	spec := resultPlaneSpec(e.r.cfg)
	path := filepath.Join(e.r.cfg.dir, fmt.Sprintf("driver-%d.adccs", os.Getpid()))
	defer os.Remove(path)
	setup := e.r.tr.begin("result plane inputs", "bench", e.parent)
	rep, err := adcc.New(nil, append(spec.Options(), adcc.WithParallelism(1), adcc.WithCampaignStore(path))...).RunCampaign(context.Background())
	var file []byte
	if err == nil {
		file, err = os.ReadFile(path)
	}
	e.r.tr.end(setup)
	if err != nil {
		e.errs = append(e.errs, "result plane inputs: "+err.Error())
		return
	}
	st, err := adcc.OpenResultStoreBytes(file)
	if err != nil {
		e.errs = append(e.errs, "result plane inputs: "+err.Error())
		return
	}
	var rows []campaign.InjectionRow
	if err := st.Scan(adcc.StoreFilter{}, func(r adcc.StoreRow) error {
		rows = append(rows, r.InjectionRow)
		return nil
	}); err != nil {
		e.errs = append(e.errs, "result plane inputs: "+err.Error())
		return
	}
	envelope, err := adcc.NewCampaignReport(rep).EncodeJSON()
	if err != nil {
		e.errs = append(e.errs, "result plane inputs: "+err.Error())
		return
	}
	opens, scans, aggs, codecs := e.size(400), e.size(40), e.size(100), e.size(200)
	t := e.drive("result plane", func(u *driverUnit) error {
		var buf bytes.Buffer
		var err error
		u.time("encode", "resultstore", len(rows), func() {
			w := resultstore.NewWriter(&buf, st.Scale(), st.Seed())
			next := 0
			for _, cell := range st.Cells() {
				w.BeginCell(cell)
				for _, r := range rows[next : next+cell.Injections] {
					w.Row(r)
				}
				next += cell.Injections
			}
			err = w.Close()
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), file) {
			return fmt.Errorf("re-encoded store differs from the file the campaign wrote")
		}
		u.time("open", "resultstore", opens, func() {
			for i := 0; i < opens && err == nil; i++ {
				_, err = adcc.OpenResultStoreBytes(file)
			}
		})
		n := 0
		u.time("scan", "resultstore", scans*len(rows), func() {
			for i := 0; i < scans && err == nil; i++ {
				err = st.Scan(adcc.StoreFilter{}, func(adcc.StoreRow) error { n++; return nil })
			}
		})
		if err == nil && n != scans*len(rows) {
			err = fmt.Errorf("scans saw %d rows, want %d", n, scans*len(rows))
		}
		var agg adcc.StoreAggregate
		u.time("aggregate", "resultstore", aggs, func() {
			for i := 0; i < aggs && err == nil; i++ {
				agg, err = st.Aggregate(adcc.StoreFilter{})
			}
		})
		if err == nil && agg.Rows != int64(rep.Injections) {
			err = fmt.Errorf("aggregate counts %d rows, the report %d injections", agg.Rows, rep.Injections)
		}
		var enc []byte
		u.time("report_encode", "report", codecs, func() {
			for i := 0; i < codecs && err == nil; i++ {
				enc, err = adcc.NewCampaignReport(rep).EncodeJSON()
			}
		})
		if err == nil && !bytes.Equal(enc, envelope) {
			err = fmt.Errorf("report encoding is not stable")
		}
		u.time("report_decode", "report", codecs, func() {
			for i := 0; i < codecs && err == nil; i++ {
				var env adcc.Report
				if env, err = adcc.DecodeReport(envelope); err == nil {
					_, err = env.CampaignReport()
				}
			}
		})
		return err
	})
	e.out["resultstore.encode_rows_per_s"] = inverse(t["encode"])
	e.out["resultstore.open_us"] = t["open"] * 1e6
	e.out["resultstore.scan_rows_per_s"] = inverse(t["scan"])
	e.out["resultstore.aggregate_us"] = t["aggregate"] * 1e6
	e.out["resultstore.bytes_per_row"] = float64(len(file)) / float64(len(rows))
	e.out["report.encode_us"] = t["report_encode"] * 1e6
	e.out["report.decode_us"] = t["report_decode"] * 1e6
}

func inverse(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

// driveService times the service plane's request types one by one on a
// server of its own with one finished job: each read endpoint over
// HTTP, a resubmission over HTTP and directly on the Server (their
// difference is what HTTP and the client cost), a fresh job against an
// in-process run of its spec, and a restart over the populated state
// directory.
func driveService(e *layerEnv) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir, err := os.MkdirTemp(e.r.cfg.dir, "driver-adccd-*")
	if err != nil {
		e.errs = append(e.errs, "service driver: "+err.Error())
		return
	}
	defer os.RemoveAll(dir)
	var srv *adccd.Server
	var ts *httptest.Server
	var client *adccclient.Client
	start := func() error {
		// srv is replaced only on success: the deferred stop closes
		// whatever srv holds, and a failed restart must not leave it nil.
		next, err := adccd.New(adccd.Config{StateDir: dir, Parallel: 1, Jobs: 1})
		if err != nil {
			return err
		}
		srv = next
		ts = httptest.NewServer(srv.Handler())
		client = adccclient.New(ts.URL, ts.Client())
		return nil
	}
	stop := func() {
		ts.Close()
		srv.Close()
	}
	if err := start(); err != nil {
		e.errs = append(e.errs, "service driver: "+err.Error())
		return
	}
	defer func() { stop() }()

	// Every repetition runs a job of its own and reads that one: the
	// event stream of a job a restarted server loaded from disk never
	// ends (the loaded job is not marked done), so the reads cannot go
	// to a job of an earlier repetition.
	base := resultPlaneSpec(e.r.cfg)
	reads := e.size(200)
	rep := 0
	t := e.drive("service plane", func(u *driverUnit) error {
		rep++
		spec := base
		spec.Seed = base.Seed*1000 + 900 + int64(rep)
		var err error
		var job adcc.JobInfo
		u.time("fresh", "adccd", 1, func() {
			if job, err = client.Submit(ctx, spec); err != nil {
				return
			}
			if err = client.Events(ctx, job.ID, -1, func(adcc.StreamEvent) error { return nil }); err != nil {
				return
			}
			if job, err = client.Wait(ctx, job.ID, time.Millisecond); err == nil && job.Status != adcc.JobDone {
				err = fmt.Errorf("fresh job %s: %s", job.Status, job.Error)
			}
		})
		if err != nil {
			return err
		}
		u.time("in_process", "campaign", 1, func() { _, err = runInProcess(spec) })

		batch := func(name string, call func(i int) error) {
			u.time(name, "adccd", reads, func() {
				for i := 0; i < reads && err == nil; i++ {
					err = call(i)
				}
			})
		}
		batch("resubmit", func(int) error { _, err := client.Submit(ctx, spec); return err })
		batch("direct_submit", func(int) error { _, err := srv.Submit(spec); return err })
		batch("report", func(int) error { _, err := client.Report(ctx, job.ID); return err })
		batch("query", func(i int) error {
			_, err := client.QueryAggregate(ctx, job.ID, readFilters[i%len(readFilters)])
			return err
		})
		batch("store", func(int) error { _, err := client.Store(ctx, job.ID); return err })
		batch("events_replay", func(int) error {
			return client.Events(ctx, job.ID, -1, func(adcc.StreamEvent) error { return nil })
		})
		if err != nil {
			return err
		}

		u.time("stop", "bench", 1, stop)
		u.time("restart_load", "adccd", 1, func() { err = start() })
		if err != nil {
			return err
		}
		// The restarted server must answer for the spec without running it.
		again, err := client.Submit(ctx, spec)
		if err != nil {
			return err
		}
		if again.Status != adcc.JobDone {
			return fmt.Errorf("after restart the spec is %s, not done", again.Status)
		}
		return nil
	})
	e.out["adccd.resubmit_us"] = t["resubmit"] * 1e6
	e.out["adccd.direct_submit_us"] = t["direct_submit"] * 1e6
	e.out["adccd.http_overhead_us"] = (t["resubmit"] - t["direct_submit"]) * 1e6
	e.out["adccd.report_us"] = t["report"] * 1e6
	e.out["adccd.query_us"] = t["query"] * 1e6
	e.out["adccd.store_us"] = t["store"] * 1e6
	e.out["adccd.events_replay_us"] = t["events_replay"] * 1e6
	if t["fresh"] > 0 {
		e.out["adccd.fresh_run_frac"] = t["in_process"] / t["fresh"]
	}
	e.out["adccd.restart_load_ms"] = t["restart_load"] * 1e3
}
