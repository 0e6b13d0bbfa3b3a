package adcc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"adcc/internal/campaign"
)

// CampaignSpec is the serializable description of one crash-injection
// campaign — the document adccd accepts over HTTP and the unit the
// result cache is keyed by. The zero value is the full default
// campaign (scale 1.0, seed 0, every workload, every scheme). A spec
// describes the deterministic result, not the execution: parallelism,
// event sinks, and output paths are Runner options.
type CampaignSpec struct {
	// Scale multiplies problem sizes and sweep density; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Seed drives crash-point selection (0 is a valid seed).
	Seed int64 `json:"seed,omitempty"`
	// Workloads restricts the sweep grid; nil means every workload of
	// the registry the campaign runs against. An unknown name is an
	// error, also beside valid ones.
	Workloads []string `json:"workloads,omitempty"`
	// Schemes restricts the sweep grid; nil means each workload's own
	// scheme list (WorkloadSpec.Schemes). Names outside a workload's
	// list are resolved in the registry and added to every selected
	// workload.
	Schemes []string `json:"schemes,omitempty"`
	// InjectionsPerCell overrides the number of crash points per cell
	// (0 = scaled default).
	InjectionsPerCell int `json:"injections_per_cell,omitempty"`
	// FaultModels selects the crash-time fault/persistency models swept
	// through the grid ("failstop", "torn", "eadr", "reorder",
	// "bitflip"); nil means clean fail-stop only. Canonical normalizes a
	// list equivalent to the default back to nil, so fail-stop-only
	// specs keep their pre-fault-axis cache keys.
	FaultModels []string `json:"fault_models,omitempty"`
	// Replay once selected between two campaign engines.
	//
	// Deprecated: ignored; there is one engine. The field survives so
	// stored and in-flight specs carrying "replay" still decode;
	// Canonical clears it.
	Replay bool `json:"replay,omitempty"`
}

// Canonical normalizes the spec without changing the result it
// describes: Scale 0 becomes 1.0, the ignored Replay is cleared, and
// the workload/scheme lists are sorted and deduplicated (report cells
// are emitted in sorted order, so grid selection is order- and
// duplicate-insensitive). Two specs with equal Canonical forms produce
// byte-identical reports.
func (s CampaignSpec) Canonical() CampaignSpec {
	s.Replay = false
	if s.Scale <= 0 {
		s.Scale = 1.0
	}
	s.Workloads = sortDedup(s.Workloads)
	s.Schemes = sortDedup(s.Schemes)
	if len(s.FaultModels) > 0 {
		// "" is ParseFaultModel's alias for "failstop"; fold it before
		// deduplicating so the two spellings share one canonical form.
		fm := make([]string, len(s.FaultModels))
		for i, m := range s.FaultModels {
			if m == "" {
				m = "failstop"
			}
			fm[i] = m
		}
		s.FaultModels = sortDedup(fm)
		if len(s.FaultModels) == 1 && s.FaultModels[0] == "failstop" {
			// ["failstop"] selects exactly the default sweep; normalize
			// it away so the spec's cache key matches the nil form.
			s.FaultModels = nil
		}
	}
	return s
}

func sortDedup(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// CacheKey is the content address of the spec's deterministic result:
// the hex SHA-256 of the canonical spec JSON. Equal keys mean
// byte-identical adcc-report/v1 envelopes, which is what lets adccd
// serve repeat submissions from its result cache without recompute.
func (s CampaignSpec) CacheKey() string {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		// Marshal of a plain struct of scalars and string slices cannot
		// fail; keep the signature ergonomic for callers.
		panic("adcc: CampaignSpec marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Options renders the spec as Runner options. Combine with execution
// options (WithParallelism, WithEventSink, WithCampaignResume, ...)
// that affect how — not what — the campaign computes.
func (s CampaignSpec) Options() []Option {
	opts := []Option{
		WithScale(s.Canonical().Scale),
		WithSeed(s.Seed),
		WithInjectionsPerCell(s.InjectionsPerCell),
	}
	if len(s.Workloads) > 0 {
		opts = append(opts, WithWorkloads(s.Workloads...))
	}
	if len(s.Schemes) > 0 {
		opts = append(opts, WithSchemes(s.Schemes...))
	}
	if fm := s.Canonical().FaultModels; len(fm) > 0 {
		opts = append(opts, WithFaultModels(fm...))
	}
	return opts
}

// CampaignCells enumerates the sweep grid the spec covers as cell keys
// ("workload/scheme@system", see CampaignCell.Key) in deterministic
// grid order, resolving names in reg (nil means the built-in registry).
// It validates the spec exactly like RunCampaign, so services can
// reject an unknown workload or scheme at submission time.
func CampaignCells(reg *Registry, s CampaignSpec) ([]string, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	c := s.Canonical()
	keys, err := campaign.Config{
		Scale:       c.Scale,
		Seed:        c.Seed,
		PerCell:     c.InjectionsPerCell,
		Workloads:   c.Workloads,
		Schemes:     c.Schemes,
		FaultModels: c.FaultModels,
		Registry:    reg.eng,
	}.CellKeys()
	if err != nil {
		return nil, fmt.Errorf("adcc: %w", err)
	}
	return keys, nil
}

// JobStatus is the lifecycle state of an adccd campaign job.
type JobStatus string

// Job lifecycle states.
const (
	// JobQueued: accepted, waiting for a worker slot.
	JobQueued JobStatus = "queued"
	// JobRunning: the campaign is executing.
	JobRunning JobStatus = "running"
	// JobDone: the report is available (freshly computed or cached).
	JobDone JobStatus = "done"
	// JobFailed: the campaign returned an error; see JobInfo.Error.
	JobFailed JobStatus = "failed"
)

// JobInfo is the status document adccd serves for one campaign job
// (POST /v1/campaigns and GET /v1/campaigns/{id}).
type JobInfo struct {
	// ID addresses the job in the /v1/campaigns/{id} endpoints.
	ID string `json:"id"`
	// Status is the job's lifecycle state.
	Status JobStatus `json:"status"`
	// Spec is the submitted campaign, as canonicalized by the server.
	Spec CampaignSpec `json:"spec"`
	// CacheKey is Spec.CacheKey — the content address the finished
	// report is cached under. Submissions are idempotent per key.
	CacheKey string `json:"cache_key"`
	// Cached reports that the result was served from the cache without
	// running the campaign.
	Cached bool `json:"cached,omitempty"`
	// Resumed reports that the job continued from shard checkpoints
	// persisted by a previous daemon process.
	Resumed bool `json:"resumed,omitempty"`
	// ShardsDone and ShardsTotal count completed cells of the sweep
	// grid, including checkpointed cells adopted on resume.
	ShardsDone  int `json:"shards_done"`
	ShardsTotal int `json:"shards_total"`
	// Injections is the report's total injection count (set when done).
	Injections int `json:"injections,omitempty"`
	// Error is the failure cause when Status is JobFailed.
	Error string `json:"error,omitempty"`
}

// StreamEvent is one frame of an adccd event stream
// (GET /v1/campaigns/{id}/events): the SSE "id" field carries Seq, the
// "event" field carries Type, and the "data" field carries Data. Types
// mirror the deterministic Event layer (case_started, case_finished,
// injection_done, progress) plus the service-level shard_done and the
// terminal done frame; see docs/HTTP_API.md for the data shapes.
type StreamEvent struct {
	// Seq is the frame's position in the job's event history, from 0.
	Seq int `json:"seq"`
	// Type names the payload shape.
	Type string `json:"type"`
	// Data is the JSON payload.
	Data json.RawMessage `json:"data"`
}
