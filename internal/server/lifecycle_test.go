package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// parkingModel is momentum whose next Predict, once armed, parks until
// release is closed: it holds one engine mid-request for as long as a
// test needs.
type parkingModel struct {
	recommend.Model
	mu      sync.Mutex
	armed   bool
	parked  chan struct{}
	release chan struct{}
}

func (m *parkingModel) arm() {
	m.mu.Lock()
	m.armed, m.parked, m.release = true, make(chan struct{}), make(chan struct{})
	m.mu.Unlock()
}

func (m *parkingModel) Predict(req trace.Request, cands []recommend.Candidate, h *trace.History) []recommend.Ranked {
	m.mu.Lock()
	armed := m.armed
	m.armed = false
	m.mu.Unlock()
	if armed {
		close(m.parked)
		<-m.release
	}
	return m.Model.Predict(req, cands, h)
}

// TestEvictedSessionLeavesItsSuccessorAlone: an evicted session's
// teardown must touch only its own queue and stream, never a newer
// session that reuses its id. The old b is held mid-request while a
// request for a evicts it; a new b is created and attaches its stream;
// then the old request is released, and whatever the old b's teardown
// does must leave the live b's stream open and its queued batch queued.
func TestEvictedSessionLeavesItsSuccessorAlone(t *testing.T) {
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	// The one worker holds the first fetch, so every later entry stays
	// queued where the test can count it.
	store := &gatedStore{Store: db, gate: make(chan struct{}), entered: make(chan struct{})}
	reg := push.NewRegistry(push.Config{})
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 1})
	model := &parkingModel{Model: recommend.NewMomentum()}
	factory := func(q core.Submitter) (*core.Engine, error) {
		return core.NewEngine(db, nil, core.SinglePolicy{Model: model.Name()},
			[]recommend.Model{model}, core.Config{K: 4, Scheduler: q})
	}
	srv := New(Meta{}, factory, Config{MaxSessions: 1, Scheduler: sched, Push: reg})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(store.gate) }) // runs first: Close waits out the held fetch

	get := func(session string, c tile.Coord) {
		resp, err := ts.Client().Get(ts.URL + fmt.Sprintf("/tile?session=%s&level=%d&y=%d&x=%d", session, c.Level, c.Y, c.X))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}
	get("b", tile.Coord{})
	<-store.entered

	// The old b parks mid-request, holding its engine.
	model.arm()
	oldDone := make(chan struct{})
	go func() { defer close(oldDone); get("b", tile.Coord{}.Child(tile.NW)) }()
	<-model.parked

	// a evicts the old b; whatever its teardown waits on, it may run late.
	evictDone := make(chan struct{})
	go func() { defer close(evictDone); get("a", tile.Coord{}) }()
	for deadline := time.Now().Add(5 * time.Second); srv.hasSession("b") || !srv.hasSession("a"); {
		if time.Now().After(deadline) {
			t.Fatal("a never evicted the old b")
		}
		time.Sleep(time.Millisecond)
	}

	// The new b: its stream attaches, then its first request queues a batch.
	frames, _ := attachStream(t, ts, "b")
	for reg.Stats().Open == 0 {
		time.Sleep(time.Millisecond)
	}
	get("b", tile.Coord{})
	depth := sched.Stats().QueueDepths["b"]
	if depth == 0 {
		t.Fatal("the new b queued nothing")
	}

	// Release the old request and let the old teardown finish.
	close(model.release)
	<-oldDone
	<-evictDone

	closed := false
	select {
	case _, ok := <-frames:
		closed = !ok
	case <-time.After(200 * time.Millisecond):
	}
	if closed || reg.Stats().Open != 1 {
		t.Fatalf("live session b's stream was torn down by the old b's eviction (b live: %v)", srv.hasSession("b"))
	}
	if got := sched.Stats().QueueDepths["b"]; got != depth {
		t.Fatalf("live session b's queue holds %d entries after the old b's teardown, want its %d", got, depth)
	}
}

// TestStreamRefusedForEndedSession: a /stream whose session is closed
// between being resolved and attaching gets 503, not an orphan stream no
// eviction would ever end. The window is opened by closing the session's
// push handle directly, as its eviction would.
func TestStreamRefusedForEndedSession(t *testing.T) {
	srv, ts, _, reg := pushTestServer(t, push.Config{}, Config{})
	resp, err := ts.Client().Get(ts.URL + "/tile?session=b&level=0&y=0&x=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.mu.Lock()
	sess := srv.sessions["b"]
	srv.mu.Unlock()
	sess.push.Close()

	resp, err = ts.Client().Get(ts.URL + "/stream?session=b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/stream for a closed session answered %d, want 503", resp.StatusCode)
	}
	if st := reg.Stats(); st.Open != 0 || st.Opened != 0 {
		t.Fatalf("registry = %+v, want no stream ever attached", st)
	}
}
