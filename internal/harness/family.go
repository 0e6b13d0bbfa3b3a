package harness

import (
	"context"
	"fmt"
	"slices"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/families"
	"adcc/internal/kvlog"
	"adcc/internal/stencil"
)

// familyLLCBytes is the LLC of the family experiments: 1 MB, the
// campaign size. At scale 1.0 the stencil's plane history straddles it
// (old planes evicted and persistent, recent planes resident and lost),
// while the KV store (index + log) stays cache-resident — the
// served-traffic regime where unflushed state is exactly what a crash
// loses.
const familyLLCBytes = 1 << 20

// RunStencil drives the Jacobi heat relaxation family.
func RunStencil(ctx context.Context, o Options) (*Table, error) {
	opts := stencil.Options{N: o.scaleInt(160, 48), MaxIter: 12, Seed: 21}
	t, ct, err := runFamily(ctx, o, runtimeTable{
		name:  stencil.WorkloadName,
		title: "Jacobi heat stencil runtime under mechanisms (normalized to native)",
		shape: fmt.Sprintf("n=%d", opts.N),
		variants: []runtimeVariant{{new: func(sc engine.Scheme) engine.Workload {
			return stencil.NewWorkload(opts, sc, nil)
		}}},
	}, stencil.TriggerIterEnd, opts.MaxIter)
	if err != nil {
		return nil, err
	}
	// The resume token is the sweep after the newest verified plane
	// pair; the lost sweeps lie between it and the crash.
	lost, avg := int64(ct.done["iterations_lost"]), int64(ct.crashed["avg_iter_ns"])
	t.AddNote("crash at end of sweep %d: %d sweeps lost, detect %.3f iter, resume %.3f iter, result verified",
		ct.from-1+lost, lost, normalize(ct.recoverNS, avg), normalize(ct.resumeNS, avg))
	t.AddNote("algo flushes 2 lines/sweep (index + residual); recovery re-relaxes from the last plane pair satisfying u(j)=Jacobi(u(j-1))")
	return t, nil
}

// RunKVLog drives the served-traffic family: a persistent KV store
// judged the way a serving system is — simulated throughput and request
// tail latency beside the runtime normalization the paper uses.
func RunKVLog(ctx context.Context, o Options) (*Table, error) {
	opts := kvlog.Options{Requests: o.scaleInt(2400, 240), KeySpace: 256, ScanLen: 8, CkptEvery: 16, Seed: 33}
	t, ct, err := runFamily(ctx, o, runtimeTable{
		name:  kvlog.WorkloadName,
		title: "Persistent KV store under mechanisms (throughput and request tail latency)",
		shape: fmt.Sprintf("requests=%d keyspace=%d", opts.Requests, opts.KeySpace),
		variants: []runtimeVariant{{new: func(sc engine.Scheme) engine.Workload {
			return kvlog.NewWorkload(opts, sc, nil)
		}}},
		tailHeaders: []string{"kOps/s", "p50(ns)", "p99(ns)"},
		tail: func(_ engine.Scheme, w engine.Workload) []any {
			m := w.Metrics()
			return []any{fmt.Sprintf("%.1f", m["ops_per_sec"]/1e3), int64(m["p50_req_ns"]), int64(m["p99_req_ns"])}
		},
	}, kvlog.TriggerReqEnd, opts.Requests)
	if err != nil {
		return nil, err
	}
	t.AddNote("crash after request %d: %d log records replayed into a cleared index in %.3f ms, state verified",
		ct.from-1, int64(ct.done["replayed_records"]), float64(ct.recoverNS)/1e6)
	t.AddNote("algo flushes only the appended log record + the high-water-mark line; the index is rebuilt by idempotent replay, never flushed")
	return t, nil
}

// runFamily drives one extension family, described by d less its machine
// and cases: the runtime table over the paper's seven cases plus whatever
// else the family's entry in the workload table lists, then one crash
// test at the occurrence-th trigger (the end of the run) proving the
// algorithm-directed recovery completes to a verified result, which the
// caller words into a note. The statistical validation of the family —
// every crash point, every scheme, fault models — lives in the campaign
// experiment, whose grid includes the family's cells.
func runFamily(ctx context.Context, o Options, d runtimeTable, trigger string, occurrence int) (*Table, crashTest, error) {
	reg := families.NewRegistry()
	d.machine = func(kind crash.SystemKind) *crash.Machine { return newMachine(kind, familyLLCBytes, 16) }
	d.cases = reg.SevenCases()
	fam, _ := reg.Family(d.name)
	for _, name := range fam.Schemes {
		if sc := reg.MustLookup(name); !slices.Contains(d.cases, sc) {
			d.cases = append(d.cases, sc)
		}
	}
	t, _, err := runRuntimeTable(ctx, o, d)
	if err != nil {
		return nil, crashTest{}, err
	}
	w := d.variants[0].new(reg.MustLookup(caseAlgoNVM))
	ct, err := runCrashTest(d.machine(crash.NVMOnly), w, trigger, occurrence)
	if err != nil {
		return nil, crashTest{}, err
	}
	if err := w.Verify(); err != nil {
		return nil, crashTest{}, fmt.Errorf("%s: algorithm-directed recovery failed verification: %w", d.name, err)
	}
	o.Collector.Record(bench.Result{
		Name:       d.name + "/recovery",
		SimNS:      ct.recoverNS + ct.resumeNS,
		RecoveryNS: ct.recoverNS,
	})
	return t, ct, nil
}
