package server

import (
	"fmt"
	"net/http"
	"strconv"

	"forecache/internal/obs"
)

// TracesResponse is the GET /debug/traces payload: the ring buffer's
// bounds and the slowest retained traces, slowest first, each with its
// per-span breakdown. Trace labels (session id, target query) are
// truncated at record time, so a hostile session id cannot bloat the
// payload, and encoding/json escapes them, so it cannot break out of it.
type TracesResponse struct {
	// Capacity and Stored bound the working set: at most Capacity traces
	// are retained, Stored are present now.
	Capacity int `json:"capacity"`
	Stored   int `json:"stored"`
	// Recorded counts traces ever recorded, including since-evicted ones.
	Recorded uint64 `json:"recorded"`
	// Traces holds up to n (default 32) retained traces by descending
	// total duration.
	Traces []obs.Trace `json:"traces"`
}

// defaultTraceN is how many traces /debug/traces returns when ?n= is
// absent.
const defaultTraceN = 32

// handleTraces serves the slowest retained traces. Like /metrics and
// /stats, it answers after Close: the buffer is append-only state that
// outlives the session tables, and a scrape racing Close reads the final
// traces instead of an error.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := defaultTraceN
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad n: want a positive integer, got %q", raw))
			return
		}
		n = v
	}
	buf := s.cfg.Obs.Traces
	out := TracesResponse{
		Capacity: buf.Cap(),
		Stored:   buf.Len(),
		Recorded: buf.Added(),
		Traces:   buf.Slowest(n),
	}
	if out.Traces == nil {
		out.Traces = []obs.Trace{} // an empty buffer serves [], not null
	}
	writeJSON(w, http.StatusOK, out)
}
