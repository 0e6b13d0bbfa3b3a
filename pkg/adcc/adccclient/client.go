// Package adccclient is the Go client for the adccd campaign service:
// typed wrappers over its HTTP/JSON endpoints plus an SSE consumer for
// the deterministic event stream. The wire protocol is documented in
// docs/HTTP_API.md; the shared request/response types (CampaignSpec,
// JobInfo, StreamEvent) live in pkg/adcc.
package adccclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"adcc/pkg/adcc"
)

// Client talks to one adccd instance. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	http *http.Client
}

// New returns a Client for the adccd instance at baseURL (for example
// "http://127.0.0.1:8080"). A nil httpClient means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// APIError is a non-2xx response from the service, carrying the HTTP
// status code and the server's error message.
type APIError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error string.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("adccd: %s (HTTP %d)", e.Message, e.Code)
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp.StatusCode, b)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

func apiError(code int, body []byte) error {
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return &APIError{Code: code, Message: doc.Error}
	}
	return &APIError{Code: code, Message: strings.TrimSpace(string(body))}
}

// Submit posts a campaign spec and returns the job serving its result —
// freshly queued, deduplicated against a live job with the same cache
// key, or answered from the result cache (JobInfo.Cached).
func (c *Client) Submit(ctx context.Context, spec adcc.CampaignSpec) (adcc.JobInfo, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return adcc.JobInfo{}, err
	}
	var info adcc.JobInfo
	err = c.do(ctx, http.MethodPost, "/v1/campaigns", bytes.NewReader(b), &info)
	return info, err
}

// jobPath builds a job-scoped endpoint path with the id escaped, so
// ids holding path metacharacters ("..", "/", "%") address the intended
// job instead of rewriting the route.
func jobPath(id string, suffix string) string {
	return "/v1/campaigns/" + url.PathEscape(id) + suffix
}

// Job fetches one job's status document.
func (c *Client) Job(ctx context.Context, id string) (adcc.JobInfo, error) {
	var info adcc.JobInfo
	err := c.do(ctx, http.MethodGet, jobPath(id, ""), nil, &info)
	return info, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]adcc.JobInfo, error) {
	var doc struct {
		Jobs []adcc.JobInfo `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &doc)
	return doc.Jobs, err
}

// Report fetches a finished job's adcc-report/v1 envelope, byte-
// identical to running the job's spec through adcc.Runner.RunCampaign.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, jobPath(id, "/report"))
}

// Store fetches a finished job's columnar result store artifact: the
// per-injection rows its report was aggregated from, ready for
// adcc.OpenResultStoreBytes or an adccquery -store file.
func (c *Client) Store(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, jobPath(id, "/store"))
}

// QueryAggregate runs the service-side store query for one filtered
// aggregate: outcome counts plus metric distributions with
// percentiles. Zero-valued filter fields match everything.
func (c *Client) QueryAggregate(ctx context.Context, id string, f adcc.StoreFilter) (adcc.StoreAggregate, error) {
	q := url.Values{}
	for _, kv := range []struct{ k, v string }{
		{"workload", f.Workload}, {"scheme", f.Scheme}, {"system", f.System},
		{"fault", f.FaultModel}, {"outcome", f.Outcome},
	} {
		if kv.v != "" {
			q.Set(kv.k, kv.v)
		}
	}
	path := jobPath(id, "/query")
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var agg adcc.StoreAggregate
	err := c.do(ctx, http.MethodGet, path, nil, &agg)
	return agg, err
}

// raw fetches one endpoint's response body verbatim.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp.StatusCode, b)
	}
	return b, nil
}

// Events consumes a job's SSE stream from the frame after lastSeq
// (-1 for the beginning), calling fn for every frame including the
// terminal "done" frame, after which it returns nil. It returns fn's
// error if fn fails, and the transport or API error otherwise. Frames
// arrive in sequence order; the terminal frame's Data is the final
// JobInfo document.
func (c *Client) Events(ctx context.Context, id string, lastSeq int, fn func(adcc.StreamEvent) error) error {
	path := jobPath(id, "/events")
	if lastSeq >= 0 {
		path += fmt.Sprintf("?from=%d", lastSeq)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		return apiError(resp.StatusCode, b)
	}
	return consumeSSE(resp.Body, fn)
}

// consumeSSE parses Server-Sent Events frames (id/event/data fields,
// blank-line delimited) and dispatches each to fn until the stream ends
// or a "done" frame arrives. Per the SSE grammar, the space after the
// field colon is optional, and an end-of-stream flushes a pending frame
// the same way a blank line does.
func consumeSSE(r io.Reader, fn func(adcc.StreamEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev adcc.StreamEvent
	flush := func() error {
		if ev.Type == "" {
			return nil
		}
		e := ev
		ev = adcc.StreamEvent{}
		if err := fn(e); err != nil {
			return err
		}
		if e.Type == "done" {
			return errStreamDone
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if err := flush(); err != nil {
				if err == errStreamDone {
					return nil
				}
				return err
			}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte{':'})
		value = bytes.TrimPrefix(value, []byte{' '})
		switch string(field) {
		case "id":
			seq, err := strconv.Atoi(string(value))
			if err != nil {
				return fmt.Errorf("adccclient: malformed SSE id %q", line)
			}
			ev.Seq = seq
		case "event":
			ev.Type = frameType(value)
		case "data":
			// The scanner reuses line's bytes: the payload is the one
			// copy a frame makes.
			ev.Data = bytes.Clone(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// EOF delimits a final frame just like a blank line would; a server
	// that closes the stream right after the terminal frame's data line
	// has still delivered it.
	if err := flush(); err != nil {
		if err == errStreamDone {
			return nil
		}
		return err
	}
	// Stream ended without a done frame (daemon shutdown mid-job).
	return io.ErrUnexpectedEOF
}

var errStreamDone = errors.New("adccclient: stream done")

// frameTypes are the frame types adccd sends (docs/HTTP_API.md), most
// frequent first.
var frameTypes = []string{
	"injection_done", "progress", "shard_done", "case_started", "case_finished", "event", "done",
}

// frameType returns the event field value b as a string, sharing the
// known frame types' strings instead of allocating one per frame.
func frameType(b []byte) string {
	for _, t := range frameTypes {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}

// Wait blocks until the job reaches a terminal state (done or failed)
// and returns its final status document, polling the job endpoint.
// A zero poll interval means 200ms. Transport errors are treated as
// transient and retried at the poll interval until the context ends; an
// APIError is authoritative (the service answered) and returned at
// once.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (adcc.JobInfo, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		info, err := c.Job(ctx, id)
		var apiErr *APIError
		switch {
		case err == nil:
			if info.Status == adcc.JobDone || info.Status == adcc.JobFailed {
				return info, nil
			}
		case errors.As(err, &apiErr):
			return adcc.JobInfo{}, err
		case ctx.Err() != nil:
			return adcc.JobInfo{}, ctx.Err()
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return adcc.JobInfo{}, ctx.Err()
		}
	}
}
