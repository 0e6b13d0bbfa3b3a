package adccd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"adcc/pkg/adcc"
)

// httpError is an error with an HTTP status code; handlers render it
// as a JSON error document.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// Handler returns the service's HTTP API. Routes (see docs/HTTP_API.md):
//
//	POST /v1/campaigns              submit a CampaignSpec; returns JobInfo
//	GET  /v1/campaigns              list jobs in submission order
//	GET  /v1/campaigns/{id}         one job's JobInfo
//	GET  /v1/campaigns/{id}/events  SSE stream of the job's event history
//	GET  /v1/campaigns/{id}/report  the finished adcc-report/v1 envelope
//	GET  /v1/campaigns/{id}/store   the columnar result store artifact
//	GET  /v1/campaigns/{id}/query   filtered aggregates over the store
//	GET  /v1/healthz                liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/campaigns/{id}/store", s.handleStore)
	mux.HandleFunc("GET /v1/campaigns/{id}/query", s.handleQuery)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec adcc.CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, &httpError{code: http.StatusBadRequest, msg: "bad campaign spec: " + err.Error()})
		return
	}
	info, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	// 200 when the submission was answered without queueing new work
	// (cache hit or dedup against a finished job), 202 otherwise.
	code := http.StatusAccepted
	if info.Status == adcc.JobDone {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.Job(id)
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	b, err := s.Report(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleStore serves a finished job's columnar result store verbatim —
// the bytes adcc.WithCampaignStore wrote, ready for adccquery or
// adcc.OpenResultStoreBytes on the client side.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	b, err := s.StoreArtifact(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b)
}

// handleQuery runs the result-store query layer server-side over a
// finished job's artifact. Filters (workload, scheme, system, fault,
// outcome; empty means any) select rows; view picks the shape:
//
//	aggregate  (default) outcome counts + metric distributions
//	cells      per-cell CellReport aggregates of the filtered rows
//	report     the adcc-report/v1 envelope rebuilt from the store —
//	           with no filters, byte-identical to /report
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	b, err := s.StoreArtifact(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := adcc.OpenResultStoreBytes(b)
	if err != nil {
		writeError(w, fmt.Errorf("open store artifact: %w", err))
		return
	}
	q := r.URL.Query()
	f := adcc.StoreFilter{
		Workload:   q.Get("workload"),
		Scheme:     q.Get("scheme"),
		System:     q.Get("system"),
		FaultModel: q.Get("fault"),
		Outcome:    q.Get("outcome"),
	}
	view := q.Get("view")
	if view == "" {
		view = "aggregate"
	}
	switch view {
	case "aggregate":
		agg, err := st.Aggregate(f)
		if err != nil {
			writeError(w, &httpError{code: http.StatusBadRequest, msg: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, agg)
	case "cells":
		cells, err := st.CellReports(f)
		if err != nil {
			writeError(w, &httpError{code: http.StatusBadRequest, msg: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"cells": cells})
	case "report":
		rep, err := queryReport(st, f)
		if err != nil {
			writeError(w, &httpError{code: http.StatusBadRequest, msg: err.Error()})
			return
		}
		env, err := adcc.NewCampaignReport(rep).EncodeJSON()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(env)
	default:
		writeError(w, &httpError{code: http.StatusBadRequest,
			msg: fmt.Sprintf("unknown view %q (want aggregate, cells, or report)", view)})
	}
}

// queryReport rebuilds a campaign report from the store: the whole-run
// rebuild when unfiltered (proving byte-identity with the cached
// envelope), an assembled subset otherwise.
func queryReport(st *adcc.ResultStore, f adcc.StoreFilter) (*adcc.CampaignReport, error) {
	if f == (adcc.StoreFilter{}) {
		return st.CampaignReport()
	}
	cells, err := st.CellReports(f)
	if err != nil {
		return nil, err
	}
	rep := &adcc.CampaignReport{
		Schema: adcc.CampaignSchemaVersion,
		Scale:  st.Scale(),
		Seed:   st.Seed(),
		Cells:  cells,
	}
	for _, c := range cells {
		rep.Injections += c.Injections
	}
	return rep, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleEvents streams a job's event history as Server-Sent Events:
// every buffered frame from the requested position, then live frames as
// they land, then one synthetic terminal "done" frame (not part of the
// stored history) carrying the final JobInfo, after which the handler
// returns and the connection closes. Resume with ?from=<seq> or the
// standard Last-Event-ID header (both mean "last seq seen"; the stream
// restarts after it).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "unknown job " + id})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{code: http.StatusInternalServerError, msg: "response writer does not support streaming"})
		return
	}
	next, err := resumeSeq(r)
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		// One write per wake: every frame buffered since the last one,
		// already encoded, and for a terminal job its done frame too.
		frames, n, wake, done := j.eventsFrom(next)
		next = n
		if len(frames) > 0 {
			_, _ = w.Write(frames)
			fl.Flush()
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Server shutdown: terminate the stream without a done frame;
			// the job is not finished.
			return
		}
	}
}

// resumeSeq extracts the resume position of an event-stream request:
// the first frame to send is the one after the given sequence number.
func resumeSeq(r *http.Request) (int, error) {
	v := r.URL.Query().Get("from")
	if h := r.Header.Get("Last-Event-ID"); v == "" && h != "" {
		v = h
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("bad resume position %q", v)}
	}
	return n + 1, nil
}
