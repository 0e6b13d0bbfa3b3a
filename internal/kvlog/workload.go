package kvlog

import (
	"fmt"

	"adcc/internal/crash"
	"adcc/internal/engine"
)

// StoreWorkload adapts the algorithm-directed store to the
// engine.Workload lifecycle, so the harness, the crash-injection
// campaign, and the public Runner drive it with crash points landing
// mid-request-stream.
type StoreWorkload struct {
	Opts Options
	// Want, when non-nil, is the precomputed oracle state (a pure
	// function of Opts, so campaigns compute it once per cell and share
	// it read-only).
	Want map[int64]int64
	// Scheme selects the algorithm-directed flush variant via its
	// FlushPolicy; nil means the selective log-tail protocol.
	Scheme engine.Scheme

	s   *Store
	rec Recovery
}

// Name implements engine.Workload.
func (w *StoreWorkload) Name() string { return WorkloadName }

// Prepare implements engine.Workload.
func (w *StoreWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.s != nil {
		return fmt.Errorf("kvlog: Prepare called twice")
	}
	w.s = NewStore(m, em, w.Opts)
	if w.Scheme != nil {
		w.s.Policy = w.Scheme.FlushPolicy()
	}
	return nil
}

// Start implements engine.Workload: requests are 1-based.
func (w *StoreWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *StoreWorkload) Run(from int64) { w.s.Run(int(from)) }

// Recover implements engine.Workload.
func (w *StoreWorkload) Recover() (int64, error) {
	rec, from, err := w.s.Recover()
	w.rec = rec
	if err != nil {
		return 0, err
	}
	if from < 1 || from > w.s.opts.Requests+1 {
		return 0, fmt.Errorf("kvlog: restart request %d out of range", from)
	}
	return int64(from), nil
}

// Verify implements engine.Workload: the live index contents must equal
// the oracle map.
func (w *StoreWorkload) Verify() error { return w.s.Verify(w.Want) }

// Metrics implements engine.Workload: simulated throughput and request
// latency percentiles, plus the last recovery's replay counters.
func (w *StoreWorkload) Metrics() map[string]float64 {
	lat := w.s.ReqNS[1:]
	return map[string]float64{
		"ops_per_sec":      Throughput(lat),
		"p50_req_ns":       float64(Percentile(lat, 50)),
		"p95_req_ns":       float64(Percentile(lat, 95)),
		"p99_req_ns":       float64(Percentile(lat, 99)),
		"replayed_records": float64(w.rec.Replayed),
		"replay_ns":        float64(w.rec.ReplayNS),
	}
}

// BaselineWorkload adapts the store under a conventional scheme to the
// engine.Workload lifecycle.
type BaselineWorkload struct {
	Opts Options
	// Want, when non-nil, is the precomputed oracle state (see
	// StoreWorkload.Want).
	Want map[int64]int64
	// Scheme selects the conventional mechanism; nil means native.
	Scheme engine.Scheme

	b *Baseline
}

// Name implements engine.Workload.
func (w *BaselineWorkload) Name() string { return WorkloadName }

// Prepare implements engine.Workload.
func (w *BaselineWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.b != nil {
		return fmt.Errorf("kvlog: Prepare called twice")
	}
	w.b = NewBaseline(m, w.Opts, w.Scheme)
	w.b.Em = em
	return nil
}

// Start implements engine.Workload: requests are 1-based.
func (w *BaselineWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *BaselineWorkload) Run(from int64) { w.b.RunFrom(int(from)) }

// Recover implements engine.Workload.
func (w *BaselineWorkload) Recover() (int64, error) {
	from, err := w.b.Recover()
	return int64(from), err
}

// Verify implements engine.Workload: same oracle comparison as the
// algorithm-directed store.
func (w *BaselineWorkload) Verify() error { return w.b.Verify(w.Want) }

// Metrics implements engine.Workload.
func (w *BaselineWorkload) Metrics() map[string]float64 {
	lat := w.b.ReqNS[1:]
	return map[string]float64{
		"ops_per_sec": Throughput(lat),
		"p50_req_ns":  float64(Percentile(lat, 50)),
		"p95_req_ns":  float64(Percentile(lat, 95)),
		"p99_req_ns":  float64(Percentile(lat, 99)),
	}
}

// NewWorkload builds the family's implementation for sc: the
// log-replay store under algorithm-directed schemes, the baseline under
// the scheme's guard otherwise. want may be nil (see StoreWorkload.Want).
func NewWorkload(opts Options, sc engine.Scheme, want map[int64]int64) engine.Workload {
	if sc.Kind() == engine.KindAlgo {
		return &StoreWorkload{Opts: opts, Want: want, Scheme: sc}
	}
	return &BaselineWorkload{Opts: opts, Want: want, Scheme: sc}
}
