package forecache

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"forecache/internal/client"
	"forecache/internal/persist"
)

// replayTraces replays each trace in its own fresh session (named by
// prefix so warmup and measurement sessions never collide) and returns
// the cache outcome counts. Drain after every request keeps async
// prefetch deterministic, as in replayStudy.
func replayTraces(t *testing.T, sched *Scheduler, ts *httptest.Server, traces []*Trace, prefix string) (hits, total int) {
	t.Helper()
	for i, tr := range traces {
		c := client.New(ts.URL, fmt.Sprintf("%s-%d", prefix, i))
		for _, req := range tr.Requests {
			_, info, err := c.Tile(req.Coord)
			if err != nil {
				t.Fatalf("%s trace %d request %v: %v", prefix, i, req.Coord, err)
			}
			total++
			if info.Hit {
				hits++
			}
			if sched != nil {
				sched.Drain()
			}
		}
	}
	return hits, total
}

// TestWarmRestartMatchesUninterruptedRun is the issue's acceptance test
// for the snapshot/restore tentpole. Four deployments over the same world:
//
//	A  never restarts: warmup traces, then measurement traces
//	B  runs only the warmup, then Close (final snapshot to StateDir)
//	C  boots from B's snapshot and runs only the measurement traces
//	D  cold-starts and runs only the measurement traces
//
// C's measurement hit rate must match A's within 0.01 (restore is
// faithful: the learned state resumes where the snapshot left it) and
// beat D's (the warmup was worth carrying across the restart).
func TestWarmRestartMatchesUninterruptedRun(t *testing.T) {
	ds, traces := testWorld(t)
	// RunStudy orders traces user-major (user u's three tasks sit at
	// 3u..3u+2). Warmup and measurement both draw task-3 traces — the
	// paper's pan-heavy task, where users sweep the same target regions —
	// so the population state learned from users 0-5 is genuinely useful
	// to users 6-9: the cross-user transfer a warm restart preserves.
	taskTraces := func(users ...int) []*Trace {
		out := make([]*Trace, 0, len(users))
		for _, u := range users {
			out = append(out, traces[3*u+2])
		}
		return out
	}
	warmup := taskTraces(0, 1, 2, 3, 4, 5)
	meas := taskTraces(6, 7, 8, 9)

	// All three learned-state families are live: the feedback collector
	// (UtilityLearning + AdaptiveAllocation), the adaptive policy and the
	// hotspot counter table.
	mkServer := func(stateDir string) (*Server, *Scheduler, *httptest.Server) {
		srv, sched, err := ds.newServer(traces, MiddlewareConfig{
			AsyncPrefetch: true, PrefetchWorkers: 4,
			UtilityLearning: true, AdaptiveAllocation: true, Hotspot: true,
			StateDir: stateDir, SnapshotInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		return srv, sched, ts
	}
	rate := func(hits, total int) float64 { return float64(hits) / float64(total) }

	// A: the uninterrupted run.
	srvA, schedA, tsA := mkServer("")
	replayTraces(t, schedA, tsA, warmup, "warm-a")
	aHits, aTotal := replayTraces(t, schedA, tsA, meas, "meas-a")
	tsA.Close()
	srvA.Close()

	// B: warmup only, then a clean shutdown that flushes the snapshot.
	dir := t.TempDir()
	srvB, schedB, tsB := mkServer(dir)
	replayTraces(t, schedB, tsB, warmup, "warm-b")
	tsB.Close()
	srvB.Close()
	if _, err := os.Stat(filepath.Join(dir, persist.FileName)); err != nil {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}

	// C: the warm restart.
	srvC, schedC, tsC := mkServer(dir)
	cHits, cTotal := replayTraces(t, schedC, tsC, meas, "meas-c")
	tsC.Close()
	srvC.Close()

	// D: the cold restart C is supposed to beat.
	srvD, schedD, tsD := mkServer("")
	dHits, dTotal := replayTraces(t, schedD, tsD, meas, "meas-d")
	tsD.Close()
	srvD.Close()

	aRate, cRate, dRate := rate(aHits, aTotal), rate(cHits, cTotal), rate(dHits, dTotal)
	t.Logf("uninterrupted %.4f, warm restart %.4f, cold restart %.4f", aRate, cRate, dRate)
	if diff := cRate - aRate; diff > 0.01 || diff < -0.01 {
		t.Errorf("warm restart hit rate %.4f differs from uninterrupted %.4f by %.4f (> 0.01)",
			cRate, aRate, diff)
	}
	if cRate <= dRate {
		t.Errorf("warm restart hit rate %.4f does not beat cold restart %.4f", cRate, dRate)
	}
}
