package adccd

import (
	"encoding/json"
	"strconv"
	"sync"

	"adcc/pkg/adcc"
)

// job is one campaign submission: its status document, the buffered
// event history every subscriber replays, and the finished report.
type job struct {
	mu   sync.Mutex
	info adcc.JobInfo
	// frames is the event history in SSE wire form, one
	// "id: N\nevent: T\ndata: D\n\n" frame per event, followed by the
	// done frame once the job is terminal; ends[i] is the offset just
	// past history frame i. frames only grows: no byte before
	// len(frames) is ever rewritten, so a slice of it capped at that
	// length, taken under mu, stays safe to read after mu is released
	// while appends carry on past its end.
	frames []byte
	ends   []int
	// wake is closed and replaced whenever frames grow or the job
	// reaches a terminal state, waking every waiting subscriber.
	wake   chan struct{}
	done   bool
	report []byte
}

func newJob(info adcc.JobInfo) *job {
	return &job{info: info, wake: make(chan struct{})}
}

// snapshot returns a copy of the job's status document.
func (j *job) snapshot() adcc.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

func (j *job) spec() adcc.CampaignSpec { return j.info.Spec }

func (j *job) status() adcc.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info.Status
}

func (j *job) reportBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

func (j *job) setStatus(st adcc.JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.Status = st
}

// complete marks the job done with its enveloped report.
func (j *job) complete(report []byte, injections int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completeLocked(report, injections)
}

// completeLocked is complete for callers already holding j.mu (or
// holding the job exclusively during construction).
func (j *job) completeLocked(report []byte, injections int) {
	j.info.Status = adcc.JobDone
	j.info.Injections = injections
	j.info.ShardsDone = j.info.ShardsTotal
	j.report = report
	j.finishLocked()
}

// fail marks the job failed.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.Status = adcc.JobFailed
	j.info.Error = err.Error()
	j.finishLocked()
}

// finishLocked marks the job terminal and encodes its done frame after
// the history. The status document does not change once the job is
// terminal, so every subscriber gets the same done frame.
func (j *job) finishLocked() {
	if !j.done {
		j.done = true
		j.frames = appendDone(j.frames, len(j.ends), j.info)
		close(j.wake)
		j.wake = make(chan struct{})
	}
}

// appendFrame appends one Server-Sent Events frame to b.
func appendFrame(b []byte, seq int, typ string, data []byte) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, "\nevent: "...)
	b = append(b, typ...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	return append(b, "\n\n"...)
}

// appendDone appends the synthetic terminal frame, numbered seq and
// carrying the final status document.
func appendDone(b []byte, seq int, info adcc.JobInfo) []byte {
	final, _ := json.Marshal(info) // a JobInfo always encodes
	return appendFrame(b, seq, "done", final)
}

// appendEvent adds one frame to the event history and wakes
// subscribers. A terminal job's history is closed: its done frame has
// been encoded after it.
func (j *job) appendEvent(typ string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.frames = appendFrame(j.frames, len(j.ends), typ, b)
	j.ends = append(j.ends, len(j.frames))
	close(j.wake)
	j.wake = make(chan struct{})
}

// appendEngineEvent translates one deterministic engine event into its
// wire frame. The shapes here are the SSE data documents of
// docs/HTTP_API.md.
func (j *job) appendEngineEvent(e adcc.Event) {
	switch e := e.(type) {
	case adcc.CaseStarted:
		j.appendEvent("case_started", caseData{
			Experiment: e.Experiment, Case: e.Case, Index: e.Index, Total: e.Total,
		})
	case adcc.CaseFinished:
		j.appendEvent("case_finished", caseData{
			Experiment: e.Experiment, Case: e.Case, Index: e.Index, Total: e.Total, Error: e.Err,
		})
	case adcc.InjectionDone:
		j.appendEvent("injection_done", injectionData{
			Cell: e.Cell, Index: e.Index, Total: e.Total, Outcome: e.Outcome,
		})
	case adcc.Progress:
		j.appendEvent("progress", progressData{Stage: e.Stage, Done: e.Done, Total: e.Total})
	default:
		j.appendEvent("event", textData{Text: e.String()})
	}
}

// shardDone records one checkpointed shard and announces it on the
// event stream.
func (j *job) shardDone(cellKey string) {
	j.mu.Lock()
	j.info.ShardsDone++
	done, total := j.info.ShardsDone, j.info.ShardsTotal
	j.mu.Unlock()
	j.appendEvent("shard_done", shardData{Cell: cellKey, ShardsDone: done, ShardsTotal: total})
}

// eventsFrom returns the encoded frames from history frame seq to the
// end of what is buffered, the sequence number after them, a channel
// that is closed on the next append or state change, and whether the
// job is terminal. A terminal job's frames end with its done frame,
// numbered next. The returned slice is capped at the bytes written so
// far (see job.frames), so it may be written out without j.mu.
func (j *job) eventsFrom(seq int) (frames []byte, next int, wake <-chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.ends)
	if seq > n {
		// Past the history: nothing to replay, and a terminal job's done
		// frame carries the requested position.
		if j.done {
			frames = appendDone(nil, seq, j.info)
		}
		return frames, seq, j.wake, j.done
	}
	start := 0
	if seq > 0 {
		start = j.ends[seq-1]
	}
	end := len(j.frames)
	return j.frames[start:end:end], n, j.wake, j.done
}

// SSE data payloads (see docs/HTTP_API.md).
type (
	caseData struct {
		Experiment string `json:"experiment"`
		Case       string `json:"case"`
		Index      int    `json:"index"`
		Total      int    `json:"total"`
		Error      string `json:"error,omitempty"`
	}
	injectionData struct {
		Cell    string `json:"cell"`
		Index   int    `json:"index"`
		Total   int    `json:"total"`
		Outcome string `json:"outcome"`
	}
	progressData struct {
		Stage string `json:"stage"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	shardData struct {
		Cell        string `json:"cell"`
		ShardsDone  int    `json:"shards_done"`
		ShardsTotal int    `json:"shards_total"`
	}
	textData struct {
		Text string `json:"text"`
	}
)
