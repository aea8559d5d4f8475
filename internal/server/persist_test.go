package server

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"forecache/internal/client"
	"forecache/internal/persist"
	"forecache/internal/prefetch"
	"forecache/internal/trace"
)

// scrapeMetrics fetches /metrics directly off the handler and validates
// the exposition with the shared strict parser.
func scrapeMetrics(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	return validatePromText(t, rec.Body.String())
}

// persistServer builds a server carrying a snapshot store over one
// FeedbackCollector family, plus the collector so tests can train it.
func persistServer(t *testing.T, dir string) (*Server, *httptest.Server, *prefetch.FeedbackCollector) {
	t.Helper()
	fc := prefetch.NewFeedbackCollector(4)
	store, err := persist.NewStore(persist.Config{Dir: dir, Interval: -1}, persist.Family{
		Name:    "feedback",
		Version: prefetch.FeedbackStateVersion,
		Export:  fc.ExportState,
		Import:  fc.ImportState,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Restore()
	store.Start()
	srv, ts := testServer(t, Config{Persist: store, Metrics: true})
	return srv, ts, fc
}

// TestStatsReportsSnapshotStatus: /stats carries the snapshot block with
// per-family restore results and save bookkeeping.
func TestStatsReportsSnapshotStatus(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := persistServer(t, dir)
	c := client.New(ts.URL, "")
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := stats["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("stats = %v, want snapshot block", stats)
	}
	fams, ok := snap["families"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot = %v, want families map", snap)
	}
	if got, ok := fams["feedback"].(string); !ok || got != "cold (no snapshot)" {
		t.Errorf("feedback = %v, want cold (no snapshot)", fams["feedback"])
	}
	if snap["age_seconds"].(float64) != -1 {
		t.Errorf("age before first save = %v, want -1", snap["age_seconds"])
	}
}

// TestCloseWritesSnapshotThenRestartRestores: Server.Close flushes a final
// snapshot, and a second server booted over the same state dir reports the
// family restored in /stats.
func TestCloseWritesSnapshotThenRestartRestores(t *testing.T) {
	dir := t.TempDir()
	srv, _, fc := persistServer(t, dir)
	fc.Observe(trace.Foraging, "momentum", 0, true)
	srv.Close()
	path := filepath.Join(dir, persist.FileName)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close did not write a snapshot: %v", err)
	}
	// Close must stay idempotent with a store attached (httptest cleanup
	// calls it again).
	srv.Close()

	_, ts2, fc2 := persistServer(t, dir)
	if fc2.Observations() != 1 {
		t.Errorf("restarted collector observations = %d, want 1", fc2.Observations())
	}
	stats, err := client.New(ts2.URL, "").Stats()
	if err != nil {
		t.Fatal(err)
	}
	snap := stats["snapshot"].(map[string]any)
	if got := snap["families"].(map[string]any)["feedback"]; got != persist.ResultRestored {
		t.Errorf("feedback after restart = %v, want %q", got, persist.ResultRestored)
	}
	if snap["restored"].(float64) != 1 {
		t.Errorf("restored count = %v, want 1", snap["restored"])
	}
}

// TestMetricsExportSnapshotFamilies: the snapshot gauges and counters ride
// the /metrics exposition and pass the strict format validator.
func TestMetricsExportSnapshotFamilies(t *testing.T) {
	dir := t.TempDir()
	srv, _, _ := persistServer(t, dir)
	values := scrapeMetrics(t, srv)
	if v, ok := values["forecache_snapshot_age_seconds"]; !ok || v != -1 {
		t.Errorf("forecache_snapshot_age_seconds = %v, %v; want -1 before first save", v, ok)
	}
	if v := values["forecache_snapshot_saves_total"]; v != 0 {
		t.Errorf("saves_total = %v, want 0", v)
	}
	if v := values["forecache_snapshot_restored_families"]; v != 0 {
		t.Errorf("restored_families = %v, want 0", v)
	}

	srv.Close()
	srv2, _, _ := persistServer(t, dir)
	values2 := scrapeMetrics(t, srv2)
	if v := values2["forecache_snapshot_restored_families"]; v != 1 {
		t.Errorf("restored_families after restart = %v, want 1", v)
	}
}
