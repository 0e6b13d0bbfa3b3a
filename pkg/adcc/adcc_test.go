package adcc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"adcc/pkg/adcc"
)

// customScheme is a user-defined consistency scheme: no conventional
// mechanism (the workload protects itself), NVM-only platform.
type customScheme struct{ name string }

func (s customScheme) Name() string                  { return s.name }
func (s customScheme) Kind() adcc.SchemeKind         { return adcc.KindNative }
func (s customScheme) System() adcc.SystemKind       { return adcc.NVMOnly }
func (s customScheme) FlushPolicy() adcc.FlushPolicy { return adcc.FlushNone }
func (s customScheme) NewGuard(*adcc.Machine, int) adcc.Guard {
	return adcc.NewNativeGuard()
}

// toyWorkload is a user-defined workload: a running sum kept beside its
// iteration counter in one persistent cache line, flushed every
// iteration, so a crash loses at most the iteration in flight and
// recovery resumes from the persistent pair.
type toyWorkload struct {
	iters int

	m     *adcc.Machine
	em    *adcc.Emulator
	state toyState // [0] iterations done, [1] their sum
	done  int
}

// toyState is the slice of the heap's int64 region the toy uses (the
// concrete region type is not re-exported).
type toyState interface {
	At(i int) int64
	Set(i int, v int64)
	Addr(i int) adcc.Addr
	Image() []int64
	Live() []int64
}

func (w *toyWorkload) Name() string { return "toy" }

func (w *toyWorkload) Prepare(m *adcc.Machine, em *adcc.Emulator) error {
	if w.m != nil {
		return errors.New("toy: Prepare called twice")
	}
	w.m, w.em = m, em
	w.state = m.Heap.AllocI64("toy.state", 2)
	return nil
}

func (w *toyWorkload) Start() int64 { return 0 }

func (w *toyWorkload) Run(from int64) {
	for i := from; i < int64(w.iters); i++ {
		w.state.Set(1, w.state.At(1)+i)
		w.state.Set(0, i+1)
		w.m.Persist(w.state.Addr(0), 16)
		w.done++
		if w.em != nil {
			w.em.Trigger("toy:iter_end")
		}
	}
}

// Recover trusts only the persistent image: a recovery fork is a fresh
// instance that never saw the crashed run.
func (w *toyWorkload) Recover() (int64, error) {
	from := w.state.Image()[0]
	if from < 0 || from > int64(w.iters) {
		return 0, fmt.Errorf("toy: persistent counter %d out of range", from)
	}
	w.done = int(from)
	return from, nil
}

func (w *toyWorkload) Verify() error {
	if w.done != w.iters {
		return fmt.Errorf("toy: did %d of %d iterations", w.done, w.iters)
	}
	if n := int64(w.iters); n > 0 && w.state.Live()[1] != n*(n-1)/2 {
		return fmt.Errorf("toy: sum %d, want %d", w.state.Live()[1], n*(n-1)/2)
	}
	return nil
}

func (w *toyWorkload) Metrics() map[string]float64 {
	return map[string]float64{"iters": float64(w.done)}
}

// TestCustomSchemeAndWorkloadThroughRunner is the public-API
// registration contract: a scheme and a workload registered on an
// instance Registry sweep through Runner.Run exactly like the
// built-ins.
func TestCustomSchemeAndWorkloadThroughRunner(t *testing.T) {
	reg := adcc.NewRegistry()
	if err := reg.RegisterScheme(customScheme{name: "custom-x"}); err != nil {
		t.Fatalf("RegisterScheme: %v", err)
	}
	err := reg.RegisterScheme(customScheme{name: "custom-x"})
	if err == nil || !strings.Contains(err.Error(), `"custom-x"`) {
		t.Fatalf("duplicate RegisterScheme error = %v, want the conflicting name", err)
	}
	if err := reg.RegisterWorkload(adcc.WorkloadSpec{
		Name:    "toy",
		Schemes: []string{"custom-x", adcc.SchemeCkptNVM},
		New: func(sc adcc.Scheme, scale float64) (adcc.Workload, error) {
			return &toyWorkload{iters: 100}, nil
		},
	}); err != nil {
		t.Fatalf("RegisterWorkload: %v", err)
	}
	if err := reg.RegisterWorkload(adcc.WorkloadSpec{Name: "toy", New: func(adcc.Scheme, float64) (adcc.Workload, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate RegisterWorkload returned nil error")
	}

	rep, err := adcc.New(reg).Run(context.Background(), "toy")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Cases) != 2 {
		t.Fatalf("swept %d cases, want the spec's 2 default schemes", len(rep.Cases))
	}
	if rep.Cases[0].Scheme != "custom-x" || rep.Cases[1].Scheme != adcc.SchemeCkptNVM {
		t.Fatalf("sweep order %v, want [custom-x %s]", rep.Cases, adcc.SchemeCkptNVM)
	}
	if failed := rep.Failed(); len(failed) != 0 {
		t.Fatalf("cases failed verification: %+v", failed)
	}
	if got := rep.Cases[0].Metrics["iters"]; got != 100 {
		t.Fatalf("custom workload metrics = %v, want iters=100", rep.Cases[0].Metrics)
	}

	// The custom namespace is instance-scoped: a fresh registry does
	// not see it.
	if _, ok := adcc.NewRegistry().Scheme("custom-x"); ok {
		t.Fatal("custom scheme leaked into a fresh registry")
	}
	if _, err := adcc.New(nil).Run(context.Background(), "toy"); err == nil {
		t.Fatal("Run of an unregistered workload returned nil error")
	}
}

// TestBuiltinWorkloadsRunAndVerify sweeps every built-in workload at CI
// scale: every scheme must complete and verify.
func TestBuiltinWorkloadsRunAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in -short mode")
	}
	runner := adcc.New(nil, adcc.WithScale(0.05), adcc.WithParallelism(4))
	names := runner.Registry().WorkloadNames()
	if len(names) != 5 {
		t.Fatalf("built-in workloads = %v, want five", names)
	}
	for _, workload := range names {
		rep, err := runner.Run(context.Background(), workload)
		if err != nil {
			t.Fatalf("Run(%s): %v", workload, err)
		}
		// One scheme list per workload, read by Run and the campaign
		// alike; without one, Run sweeps the seven cases and the campaign
		// six schemes, each cell on both platforms.
		spec, _ := runner.Registry().Workload(workload)
		wantRun, wantGrid := len(spec.Schemes), 2*len(spec.Schemes)
		if spec.Schemes == nil {
			wantRun, wantGrid = 7, 12
		}
		if len(rep.Cases) != wantRun {
			t.Fatalf("Run(%s) swept %d cases, want %d", workload, len(rep.Cases), wantRun)
		}
		cells, err := adcc.CampaignCells(nil, adcc.CampaignSpec{Workloads: []string{workload}})
		if err != nil || len(cells) != wantGrid {
			t.Fatalf("CampaignCells(%s) = %d cells, %v; want %d", workload, len(cells), err, wantGrid)
		}
		for _, c := range rep.Cases {
			if c.Err != "" {
				t.Errorf("%s/%s: %s", workload, c.Scheme, c.Err)
			}
			if c.SimNS <= 0 {
				t.Errorf("%s/%s: no simulated time recorded", workload, c.Scheme)
			}
		}
	}
}

// TestCancellationMidSweep is the context contract: cancelling the
// context mid-campaign stops dispatch promptly and surfaces ctx.Err().
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	injections := 0
	runner := adcc.New(nil,
		adcc.WithScale(0.02),
		adcc.WithParallelism(2),
		adcc.WithWorkloads(adcc.WorkloadMC),
		adcc.WithSchemes(adcc.SchemeAlgoNVM, adcc.SchemeCkptNVM, adcc.SchemeNative),
		adcc.WithInjectionsPerCell(20),
		adcc.WithEventSink(adcc.SinkFunc(func(e adcc.Event) {
			if _, ok := e.(adcc.InjectionDone); ok {
				injections++
				if injections == 2 {
					cancel()
				}
			}
		})),
	)
	start := time.Now()
	rep, err := runner.RunCampaign(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCampaign err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled campaign returned a report")
	}
	// 6 cells x 20 points. Injections are announced a cell at a time,
	// so cancelling inside the first cell's announcement can still see
	// that cell and the one the second worker had already finished —
	// but nothing dispatched or forked after the cancellation.
	if injections > 2*20 {
		t.Fatalf("%d injections classified after cancellation", injections)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled campaign took %v to return", elapsed)
	}

	// A pre-cancelled context never dispatches work at all.
	done, doneCancel := context.WithCancel(context.Background())
	doneCancel()
	if _, err := adcc.New(nil, adcc.WithScale(0.05)).Run(done, adcc.WorkloadCG); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestCustomSchemeSweepsThroughCampaign covers the instance-registry
// contract end to end: a custom scheme named in WithSchemes joins the
// campaign grid — for RunCampaign and for the "campaign" experiment
// alike, which must also honor WithWorkloads and
// WithInjectionsPerCell.
func TestCustomSchemeSweepsThroughCampaign(t *testing.T) {
	reg := adcc.NewRegistry()
	if err := reg.RegisterScheme(customScheme{name: "custom-x"}); err != nil {
		t.Fatal(err)
	}
	runner := adcc.New(reg,
		adcc.WithScale(0.02),
		adcc.WithParallelism(2),
		adcc.WithWorkloads(adcc.WorkloadMM),
		adcc.WithSchemes("custom-x"),
		adcc.WithInjectionsPerCell(2),
	)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(rep.Cells) != 2 { // custom-x on both platforms
		t.Fatalf("campaign swept %d cells, want 2 (custom scheme on both systems)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Scheme != "custom-x" || c.Workload != adcc.WorkloadMM {
			t.Fatalf("unexpected cell %s/%s", c.Workload, c.Scheme)
		}
		if c.Injections != 2 {
			t.Fatalf("cell swept %d injections, want the configured 2", c.Injections)
		}
	}

	// The same grid configuration must reach the campaign when it runs
	// as a harness experiment.
	tab, err := runner.RunExperiment(context.Background(), "campaign")
	if err != nil {
		t.Fatalf("RunExperiment(campaign): %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("campaign experiment table has %d rows, want 2:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		if row[1] != "custom-x" {
			t.Fatalf("campaign experiment ignored the configured scheme filter:\n%s", tab)
		}
	}
}

// TestRunEventStreamCarriesCaseFailures asserts a failed case streams
// its error instead of "ok".
func TestRunEventStreamCarriesCaseFailures(t *testing.T) {
	reg := adcc.NewRegistry()
	if err := reg.RegisterWorkload(adcc.WorkloadSpec{
		Name:    "half-broken",
		Schemes: []string{adcc.SchemeNative, adcc.SchemeAlgoNVM},
		New: func(sc adcc.Scheme, _ float64) (adcc.Workload, error) {
			w := &toyWorkload{iters: 10}
			if sc.Kind() == adcc.KindAlgo {
				w.iters = -1 // Run does nothing; Verify fails
			}
			return w, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	var lines []string
	runner := adcc.New(reg, adcc.WithEventSink(recordSink(&lines)))
	rep, err := runner.Run(context.Background(), "half-broken")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Failed()) != 1 {
		t.Fatalf("want exactly one failed case, got %+v", rep.Cases)
	}
	stream := strings.Join(lines, "\n")
	if !strings.Contains(stream, "native: ok") {
		t.Fatalf("healthy case missing from stream:\n%s", stream)
	}
	if !strings.Contains(stream, adcc.SchemeAlgoNVM+": error: toy: did 0 of -1 iterations") {
		t.Fatalf("failed case not streamed as an error:\n%s", stream)
	}
}

// recordSink renders every event to a line.
func recordSink(lines *[]string) adcc.EventSink {
	return adcc.SinkFunc(func(e adcc.Event) { *lines = append(*lines, e.String()) })
}

// TestEventStreamByteIdenticalAcrossParallelism is the streaming
// determinism contract: the rendered event stream of a run — workload
// sweep and campaign alike — is byte-identical at -parallel 1 and
// -parallel 8.
func TestEventStreamByteIdenticalAcrossParallelism(t *testing.T) {
	sweep := func(parallel int) (string, string) {
		var runLines, campLines []string
		runner := adcc.New(nil,
			adcc.WithScale(0.02),
			adcc.WithParallelism(parallel),
			adcc.WithWorkloads(adcc.WorkloadMM),
			adcc.WithInjectionsPerCell(3),
			adcc.WithEventSink(recordSink(&runLines)),
		)
		if _, err := runner.Run(context.Background(), adcc.WorkloadMC); err != nil {
			t.Fatalf("Run(parallel=%d): %v", parallel, err)
		}
		campRunner := adcc.New(nil,
			adcc.WithScale(0.02),
			adcc.WithParallelism(parallel),
			adcc.WithWorkloads(adcc.WorkloadMM),
			adcc.WithInjectionsPerCell(3),
			adcc.WithEventSink(recordSink(&campLines)),
		)
		if _, err := campRunner.RunCampaign(context.Background()); err != nil {
			t.Fatalf("RunCampaign(parallel=%d): %v", parallel, err)
		}
		return strings.Join(runLines, "\n"), strings.Join(campLines, "\n")
	}

	serialRun, serialCamp := sweep(1)
	parRun, parCamp := sweep(8)
	if serialRun != parRun {
		t.Fatalf("workload-sweep event stream differs between parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialRun, parRun)
	}
	if serialCamp != parCamp {
		t.Fatalf("campaign event stream differs between parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialCamp, parCamp)
	}
	if !strings.Contains(serialRun, "run/mc: case 1/") {
		t.Fatalf("sweep stream missing case events:\n%s", serialRun)
	}
	if !strings.Contains(serialCamp, "campaign/profile") || !strings.Contains(serialCamp, "injection 1/") {
		t.Fatalf("campaign stream missing profile/injection events:\n%s", serialCamp)
	}
}

// TestStencilThroughPublicAPI drives the extension workload family
// end to end on the public surface alone: build the platform, crash the
// extended relaxation mid-run, recover via the algorithm-directed walk,
// and verify against the exported oracle — then sweep the registered
// "stencil" workload through a campaign and require the
// algorithm-directed scheme to survive every injection.
func TestStencilThroughPublicAPI(t *testing.T) {
	opts := adcc.HeatOptions{N: 48, MaxIter: 10, Seed: 5}
	m := adcc.NewMachine(adcc.MachineConfig{System: adcc.NVMOnly})
	em := adcc.NewEmulator(m)
	h := adcc.NewHeat(m, em, opts)
	em.CrashAtTrigger(adcc.TriggerStencilIterEnd, 7)
	if !em.Run(func() { h.Run(1) }) {
		t.Fatal("did not crash")
	}
	rec := h.Recover()
	if rec.CrashIter != 7 {
		t.Fatalf("crash iter = %d, want 7", rec.CrashIter)
	}
	h.Run(rec.RestartIter)
	if err := adcc.HeatVerify(h.Result(), adcc.HeatWant(opts)); err != nil {
		t.Fatalf("recovered relaxation corrupt: %v", err)
	}

	runner := adcc.New(nil,
		adcc.WithScale(0.02),
		adcc.WithParallelism(4),
		adcc.WithWorkloads(adcc.WorkloadStencil),
		adcc.WithSchemes(adcc.SchemeAlgoNVM, adcc.SchemeAlgoNaive),
		adcc.WithInjectionsPerCell(4),
	)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(rep.Cells) != 4 { // 2 schemes x 2 systems
		t.Fatalf("campaign swept %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Scheme == adcc.SchemeAlgoNVM && c.Failures() != 0 {
			t.Errorf("%s@%s: %d failures, want 0", c.Scheme, c.System, c.Failures())
		}
	}
}

// TestRunReportCollector asserts WithCollector records one result per
// swept case with the deterministic simulated timing.
func TestRunReportCollector(t *testing.T) {
	col := adcc.NewCollector()
	runner := adcc.New(nil,
		adcc.WithScale(0.02),
		adcc.WithCollector(col),
		adcc.WithSchemes(adcc.SchemeNative, adcc.SchemeAlgoNVM),
	)
	rep, err := runner.Run(context.Background(), adcc.WorkloadCG)
	if err != nil {
		t.Fatal(err)
	}
	results := col.Results()
	if len(results) != len(rep.Cases) {
		t.Fatalf("collector has %d results, want %d", len(results), len(rep.Cases))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.Name, "cg/") || r.SimNS <= 0 {
			t.Fatalf("unexpected collected result %+v", r)
		}
	}
}

// TestNonFiniteScaleRejected: a NaN or infinite campaign scale must be
// refused before anything runs — by RunCampaign and by CampaignCells —
// with an error naming the value, not run to a report that cannot be
// encoded.
func TestNonFiniteScaleRejected(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprint(scale)
		rep, err := adcc.New(nil, adcc.WithScale(scale), adcc.WithWorkloads(adcc.WorkloadMC)).RunCampaign(context.Background())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunCampaign(scale=%v) = %v, %v; want an error naming %s", scale, rep, err, want)
		}
		spec := adcc.CampaignSpec{Scale: scale, Workloads: []string{adcc.WorkloadMC}}
		if _, err := adcc.CampaignCells(nil, spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CampaignCells(scale=%v) = %v; want an error naming %s", scale, err, want)
		}
	}
}
