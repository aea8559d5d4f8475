package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// smallWorld is a four-level world: big enough for both schedules, small
// enough to build several times in a test.
func smallWorld(t *testing.T) *forecache.Dataset {
	t.Helper()
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: worldSeed, Size: 128, TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	a, b := smallWorld(t), smallWorld(t)
	for _, sc := range []struct {
		name string
		gen  func(ds *forecache.Dataset, seed int64) [][]trace.Request
	}{
		{scheduleStudy, studySchedule},
		{scheduleWalk, func(ds *forecache.Dataset, seed int64) [][]trace.Request { return walkSchedule(ds.Pyramid, seed) }},
	} {
		first, again := encodeSchedule(sc.gen(a, 7)), encodeSchedule(sc.gen(b, 7))
		if len(first) == 0 {
			t.Fatalf("%s schedule is empty", sc.name)
		}
		if !bytes.Equal(first, again) {
			t.Errorf("%s schedule: the same seed gave different bytes", sc.name)
		}
		if bytes.Equal(first, encodeSchedule(sc.gen(a, 8))) {
			t.Errorf("%s schedule: another seed gave the same bytes", sc.name)
		}
	}
}

func TestWalksAreLegalMoveByMove(t *testing.T) {
	ds := smallWorld(t)
	train := ds.SimulateStudy(trainSeed)
	cfg := forecache.MiddlewareConfig{Latency: benchLatency}
	arts, err := ds.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Artifacts = arts
	walks := walkSchedule(ds.Pyramid, 7)
	if len(walks) != walkCount {
		t.Fatalf("got %d walks, want %d", len(walks), walkCount)
	}
	finest := ds.Pyramid.NumLevels() - 1
	for i, walk := range walks {
		if len(walk) != walkMoves+1 {
			t.Fatalf("walk %d has %d requests, want %d", i, len(walk), walkMoves+1)
		}
		if l := walk[0].Coord.Level; l < finest-1 {
			t.Errorf("walk %d starts at level %d, want one of the two finest (%d)", i, l, finest)
		}
		eng, err := ds.NewMiddleware(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range walk {
			if _, err := eng.Request(r.Coord); err != nil {
				t.Fatalf("walk %d, request %d: a fresh engine refused it: %v", i, j, err)
			}
		}
	}
}

func TestSlotsRotateSessions(t *testing.T) {
	sched := [][]trace.Request{make([]trace.Request, 3), make([]trace.Request, 5), make([]trace.Request, 2)}
	w := workload{Slots: 2, SessionEvery: 2}
	slots := newSlots(w, sched)
	s := slots[1][0] // slot 1 starts at trace 1 and strides by 2
	var ids []string
	for i := 0; i < 9; i++ {
		if _, fresh := s.advance(); fresh {
			ids = append(ids, s.sessionID())
		}
	}
	// Trace 1 has five requests: sessions after 0, 2 and 4; then trace
	// 3%3=0 with three: sessions after 0 and 2; then trace 5%3=2.
	want := "w1-s0-g1 w1-s0-g2 w1-s0-g3 w1-s0-g4 w1-s0-g5 w1-s0-g6"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("session ids %q, want %q", got, want)
	}
}

func TestDigestSurvivesEveryWireFormat(t *testing.T) {
	ds := smallWorld(t)
	orig, err := ds.Pyramid.Tile(tile.Coord{Level: 2, Y: 1, X: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := digestTile(orig)
	body, err := orig.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON tile.Tile
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if digestTile(&viaJSON) != want {
		t.Error("digest changed across the JSON codec")
	}
	bin, err := tile.EncodeBinary(orig)
	if err != nil {
		t.Fatal(err)
	}
	viaBinary, err := tile.DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if digestTile(viaBinary) != want {
		t.Error("digest changed across the binary codec")
	}
	viaBinary.Data[0][5] += 1e-9
	if digestTile(viaBinary) == want {
		t.Error("digest did not notice a changed cell")
	}
}

// The server flushes /stream through http.ResponseController, which reaches
// the real writer's Flush only through Unwrap; without it client.Attach
// blocks forever.
func TestCountingWriterFlushesThroughUnwrap(t *testing.T) {
	var n atomic.Int64
	flushed := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, n: &n}
		io.WriteString(cw, "frame")
		flushed <- http.NewResponseController(cw).Flush()
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-flushed; err != nil {
		t.Errorf("Flush through the counting writer: %v", err)
	}
	if n.Load() != 5 {
		t.Errorf("counted %d bytes, want 5", n.Load())
	}
}

func TestCountingClockIsConcurrencySafe(t *testing.T) {
	c := &countingClock{latency: benchLatency}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Sleep(benchLatency.Miss)
				c.Sleep(benchLatency.Hit)
				c.Sleep(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.misses.Load() != 8000 || c.hits.Load() != 8000 || c.other.Load() != 8000 {
		t.Errorf("counted %d misses, %d hits, %d others, want 8000 each", c.misses.Load(), c.hits.Load(), c.other.Load())
	}
	if want := 8000 * (benchLatency.Miss + benchLatency.Hit + time.Nanosecond); c.Elapsed() != want {
		t.Errorf("elapsed %v, want %v", c.Elapsed(), want)
	}
	if c.slept.Load() != 0 {
		t.Error("a clock that only counts really slept")
	}
}

func TestJudge(t *testing.T) {
	lower := decl{Name: "latency", Better: "lower", Bound: 0.10}
	higher := decl{Name: "rate", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		d    decl
		a, b []float64
		want string
	}{
		{"single runs, inside the bound", lower, []float64{100}, []float64{105}, verdictWithin},
		{"single runs, worse", lower, []float64{100}, []float64{120}, verdictWorse},
		{"single runs, better", lower, []float64{100}, []float64{80}, verdictBetter},
		{"higher is better, a drop is worse", higher, []float64{100}, []float64{80}, verdictWorse},
		{"higher is better, a rise is better", higher, []float64{100}, []float64{120}, verdictBetter},
		{"tight sets, worse", lower, []float64{99, 100, 101, 100, 100}, []float64{119, 120, 121, 120, 120}, verdictWorse},
		{"scattered and overlapping", lower, []float64{80, 100, 120, 90, 130}, []float64{85, 115, 125, 140, 95}, verdictUnresolved},
		{"scattered but cleanly apart, worse", lower, []float64{80, 100, 120, 90, 110}, []float64{200, 260, 220, 240, 300}, verdictWorse},
		{"scattered but cleanly apart, better", lower, []float64{200, 260, 220, 240, 300}, []float64{80, 100, 120, 90, 110}, verdictBetter},
	} {
		if _, got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnlyOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		ms := metricSet{}
		ms.set("tile_p50_ms", p50, "ms", 1000)
		ms.set("tile_rps", 2500, "1/s", 1000)
		if err := appendResults(path, []result{{Workload: "paper_pull", Correct: true, Metrics: ms}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.jsonl", 0.70), write("same.jsonl", 0.71), write("slow.jsonl", 0.90)
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, &errs); code != 0 {
		t.Errorf("equal runs: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("equal runs: no %q row in\n%s", verdictWithin, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, &errs); code != 1 {
		t.Errorf("a slower run: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a slower run: no %q row in\n%s", verdictWorse, out.String())
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json declares what this package reports; the two must not
// drift apart.
func TestManifestMatchesTheCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest has %q (%q), the table %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the catalog", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest has %+v, the catalog %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the catalog", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest has %+v, the catalog %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("%s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// The smoke run exercises every workload, the traced runs, every probe, the
// budget table, the JSON writer and -compare; no timing is asserted.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	dir := t.TempDir()
	outFile := filepath.Join(dir, "smoke.jsonl")
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "11", "-outdir", filepath.Join(dir, "out"), "-out", outFile}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, lines[len(lines)-1])
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Errorf("summary: correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
	}
	for _, w := range workloads {
		for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
			if _, ok := sum.Metrics[w.Name+"/"+d.Name]; !ok {
				t.Errorf("summary lacks %s/%s", w.Name, d.Name)
			}
		}
		if !strings.Contains(out.String(), "budget: "+w.Name) || !strings.Contains(out.String(), "unattributed residual") {
			t.Errorf("no budget table with a residual row for %s", w.Name)
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("no span file for %s: %v", w.Name, err)
		}
	}
	// What each workload bypasses must read zero; what it exists for, not.
	metricOf := func(workload, name string) float64 { return sum.Metrics[workload+"/"+name].Value }
	for _, name := range []string{"prefetch.queued_per_req", "push.pushed_per_req", "tile.enc_cache_hit_share", "backend.demand_wait_ms_per_req", "persist.saves"} {
		if v := metricOf("paper_pull", name); v != 0 {
			t.Errorf("paper_pull: %s = %v, want 0", name, v)
		}
	}
	if metricOf("slow_backend_push", "client.streamed_share") == 0 || metricOf("slow_backend_push", "backend.demand_wait_ms_per_req") == 0 {
		t.Error("slow_backend_push streamed nothing or never waited for the backend")
	}
	if metricOf("cold_churn", "server.sessions_evicted") == 0 {
		t.Error("cold_churn evicted no session")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "out", "*state-*")); len(entries) != 0 {
		t.Errorf("temporary state left behind: %v", entries)
	}
	out.Reset()
	if code := run([]string{"-compare", outFile, outFile}, &out, &errs); code != 0 {
		t.Errorf("comparing a result file with itself: exit %d\n%s", code, out.String())
	}
}
