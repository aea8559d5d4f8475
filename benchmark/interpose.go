package main

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"forecache"
)

// The program is measured from outside, through the seams it already
// offers: its http.Handler (wrapped by meter), its backend.Clock
// (countingClock) and the listener's connection-state hook (connGauge).

// span is one boundary crossing of the traced run. Spans of one request
// share ID ("<session>#<n>", n counting that session's requests: the loop
// is closed, so both sides of the wire count alike); Parent names the span
// of the same request that caused this one.
type span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, which is how tracing is off in measured windows.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name, id, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{
		Name: name, ID: id, Parent: parent,
		StartUS: float64(start.Sub(l.epoch)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(l.epoch)) / float64(time.Microsecond),
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// meter wraps the server's handler: it counts the bytes the server writes
// (tile bodies and stream frames apart), sums the time spent inside /tile
// handlers, and in a traced run records one server.handle span per request.
type meter struct {
	next http.Handler
	log  *spanLog

	tileBytes   atomic.Int64
	streamBytes atomic.Int64
	handleNS    atomic.Int64
	handled     atomic.Int64

	mu  sync.Mutex
	seq map[string]int // per-session request count, traced runs only
}

func newMeter(next http.Handler, log *spanLog) *meter {
	return &meter{next: next, log: log, seq: make(map[string]int)}
}

func (m *meter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/tile":
		cw := &countingWriter{ResponseWriter: w, n: &m.tileBytes}
		start := time.Now()
		m.next.ServeHTTP(cw, r)
		end := time.Now()
		m.handleNS.Add(int64(end.Sub(start)))
		m.handled.Add(1)
		if m.log != nil {
			session := r.URL.Query().Get("session")
			m.mu.Lock()
			m.seq[session]++
			n := m.seq[session]
			m.mu.Unlock()
			m.log.add("server.handle", requestID(session, n), "client.tile", start, end)
		}
	case "/stream":
		m.next.ServeHTTP(&countingWriter{ResponseWriter: w, n: &m.streamBytes}, r)
	default:
		m.next.ServeHTTP(w, r)
	}
}

// countingWriter counts body bytes. It must expose Unwrap: the server
// flushes /stream through http.ResponseController, which finds the real
// writer's Flush only that way — without it client.Attach never returns.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingClock is the benchmark's backend.Clock. It counts Sleep calls by
// the duration asked for — Miss is a DBMS round trip, Hit a SharedPool hit —
// and really sleeps only on a round trip of a workload that injects a
// backend delay. Safe for concurrent use.
type countingClock struct {
	latency forecache.LatencyModel
	real    bool
	log     *spanLog

	misses, hits, other atomic.Int64
	elapsed, slept      atomic.Int64 // ns asked for, ns really slept
}

func (c *countingClock) Sleep(d time.Duration) {
	c.elapsed.Add(int64(d))
	switch d {
	case c.latency.Miss:
		c.misses.Add(1)
		if c.real {
			start := time.Now()
			time.Sleep(d)
			end := time.Now()
			c.slept.Add(int64(end.Sub(start)))
			c.log.add("backend.demand_wait", "", "", start, end)
		}
	case c.latency.Hit:
		c.hits.Add(1)
	default:
		c.other.Add(1)
	}
}

func (c *countingClock) Elapsed() time.Duration { return time.Duration(c.elapsed.Load()) }

// connGauge follows the listener's connections through http.Server's
// ConnState hook: how many carry a request right now (a /stream counts for
// as long as it is attached), the most that ever did, and how many
// connections were opened in all.
type connGauge struct {
	mu                   sync.Mutex
	active               map[net.Conn]bool
	peakActive, accepted int
}

func (g *connGauge) track(c net.Conn, state http.ConnState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch state {
	case http.StateNew:
		g.accepted++
	case http.StateActive:
		if g.active == nil {
			g.active = make(map[net.Conn]bool)
		}
		g.active[c] = true
		g.peakActive = max(g.peakActive, len(g.active))
	default: // idle, hijacked or closed
		delete(g.active, c)
	}
}

func (g *connGauge) snapshot() (peakActive, accepted int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peakActive, g.accepted
}
