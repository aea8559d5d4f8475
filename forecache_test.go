package forecache

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/client"
	"forecache/internal/phase"
	"forecache/internal/recommend"
	"forecache/internal/shard"
	"forecache/internal/sig"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

var (
	worldOnce sync.Once
	world     *Dataset
	worldTr   []*Trace
)

func testWorld(t testing.TB) (*Dataset, []*Trace) {
	worldOnce.Do(func() {
		ds, err := BuildWorld(WorldConfig{Seed: 3, Size: 256, TileSize: 16})
		if err != nil {
			t.Fatalf("BuildWorld: %v", err)
		}
		world = ds
		worldTr = ds.SimulateStudy(5)
	})
	if world == nil {
		t.Fatal("world unavailable")
	}
	return world, worldTr
}

func TestBuildWorldPipeline(t *testing.T) {
	ds, traces := testWorld(t)
	if ds.Pyramid.NumLevels() != 5 {
		t.Errorf("levels = %d, want 5 for 256/16", ds.Pyramid.NumLevels())
	}
	// Every tile must carry all four signatures (SIFT needs the trained
	// codebook).
	tl, err := ds.Pyramid.Tile(Coord{Level: 2, Y: 1, X: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sig.AllNames() {
		if tl.Signatures[name] == nil {
			t.Errorf("tile missing signature %q", name)
		}
	}
	if len(traces) != 54 {
		t.Errorf("study traces = %d, want 54", len(traces))
	}
	// The 256x256 NDSI array lives on only as tiles: 1+4+...+256 of them,
	// and the 16x16 base tiles carry its ndsi_avg cells.
	if got := ds.Pyramid.NumTiles(); got != 341 {
		t.Errorf("tiles = %d, want 341", got)
	}
	baseCells := 0
	ds.Pyramid.EachTile(func(tl *Tile) bool {
		if tl.Coord.Level == ds.Pyramid.NumLevels()-1 {
			g, err := tl.Grid("ndsi_avg")
			if err != nil {
				t.Fatal(err)
			}
			baseCells += len(g)
		}
		return true
	})
	if baseCells != 256*256 {
		t.Errorf("base tiles hold %d ndsi_avg cells, want %d", baseCells, 256*256)
	}
}

func TestNewMiddlewareEndToEnd(t *testing.T) {
	ds, traces := testWorld(t)
	mw, err := ds.NewMiddleware(traces, MiddlewareConfig{})
	if err != nil {
		t.Fatalf("NewMiddleware: %v", err)
	}
	resp, err := mw.Request(Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hit {
		t.Error("cold cache should miss")
	}
	if resp.Phase == 0 {
		t.Error("hybrid middleware should classify the phase")
	}
	if len(resp.Prefetched) == 0 {
		t.Error("middleware should prefetch")
	}
	// Walk a short zoom chain; at least one of the following requests
	// should be served from cache given K=5 covers 5 of at most 9 moves.
	hits := 0
	cur := Coord{}
	for i := 0; i < 3; i++ {
		cur = cur.Child(tile.NW)
		r, err := mw.Request(cur)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit {
			hits++
		}
	}
	st := mw.CacheStats()
	if st.Hits != hits || st.Hits+st.Misses != 4 {
		t.Errorf("stats = %+v, loop hits = %d", st, hits)
	}
}

func TestBuildPyramidGenericDataset(t *testing.T) {
	// A non-MODIS grid (heart-rate-like ramp) through the generic route.
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = 60 + float64(i%40)
	}
	cfg := sig.DefaultConfig("bpm")
	cfg.ValueMin, cfg.ValueMax = 40, 160
	ds, err := BuildPyramid(&Grid{Rows: 64, Cols: 64, Attrs: []string{"bpm"}, Data: [][]float64{data}}, 16, cfg, 20)
	if err != nil {
		t.Fatalf("BuildPyramid: %v", err)
	}
	if ds.Pyramid.NumLevels() != 3 {
		t.Errorf("levels = %d, want 3", ds.Pyramid.NumLevels())
	}
	if ds.Attr != "bpm" {
		t.Errorf("attr = %q", ds.Attr)
	}
}

func TestHarnessFromDataset(t *testing.T) {
	ds, traces := testWorld(t)
	h := ds.Harness(traces)
	if h.Pyr != ds.Pyramid || len(h.Traces) != len(traces) {
		t.Error("harness wiring wrong")
	}
}

func TestWorldDeterminism(t *testing.T) {
	a, err := BuildWorld(WorldConfig{Seed: 11, Size: 128, TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorld(WorldConfig{Seed: 11, Size: 128, TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Pyramid.Tile(Coord{Level: 2, Y: 1, X: 2})
	tb, _ := b.Pyramid.Tile(Coord{Level: 2, Y: 1, X: 2})
	for name, sa := range ta.Signatures {
		sb := tb.Signatures[name]
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("signature %s differs across identical builds", name)
			}
		}
	}
}

// TestPyramidDigest pins every tile BuildWorld makes, signatures included,
// to the bit: per tile in EachTile order, FNV-64a over the coordinate, the
// attribute names, every cell's float64 bits and the signatures in name
// order. (3, 200) pads the raw grid with empty cells to 256.
func TestPyramidDigest(t *testing.T) {
	for _, w := range []struct {
		seed int64
		size int
		want uint64
	}{{42, 128, 0x562210138139757a}, {7, 512, 0x19bb3fbf3577b6b1}, {3, 200, 0x655a128e60867b96}} {
		ds, err := BuildWorld(WorldConfig{Seed: w.seed, Size: w.size})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		floats := func(vs []float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		ds.Pyramid.EachTile(func(tl *Tile) bool {
			io.WriteString(h, tl.Coord.String())
			for _, a := range tl.Attrs {
				io.WriteString(h, a)
			}
			for _, g := range tl.Data {
				floats(g)
			}
			for _, name := range slices.Sorted(maps.Keys(tl.Signatures)) {
				io.WriteString(h, name)
				floats(tl.Signatures[name])
			}
			return true
		})
		if got := h.Sum64(); got != w.want {
			t.Errorf("BuildWorld(%d, %d) pyramid digest = %#x, want %#x", w.seed, w.size, got, w.want)
		}
	}
}

// TestPredictionPin pins the prediction pass's answers on the 7/512 world
// to the bit, one FNV-64a digest per model:
//   - phase: Predict for every tile x move class, by the classifier
//     Dataset.Train fits and by each of Table 1's six single-feature ones;
//   - markov3: every AB ranking (coordinates and score bits) for every
//     history of at most three moves, at d = 1 and d = 2, trained on
//     SimulateStudy(7);
//   - sb and sb:sift: every SB ranking along the study's first trace.
func TestPredictionPin(t *testing.T) {
	ds, err := BuildWorld(WorldConfig{Seed: 7, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	traces := ds.SimulateStudy(7)
	arts, err := ds.Train(traces, MiddlewareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := phase.Requests(traces)
	reqs = reqs[:min(len(reqs), maxClassifierRequests)]
	classifiers := []*phase.Classifier{arts.cls}
	for f := range phase.NumFeatures {
		cls, err := phase.Train(reqs, phase.TrainConfig{Features: []int{f}})
		if err != nil {
			t.Fatal(err)
		}
		classifiers = append(classifiers, cls)
	}
	ab, err := recommend.NewAB(3, traces)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ranking := func(rs []recommend.Ranked) {
		for _, r := range rs {
			io.WriteString(h, r.Coord.String())
			word(math.Float64bits(r.Score))
		}
	}
	check := func(name string, want uint64) {
		t.Helper()
		if got := h.Sum64(); got != want {
			t.Errorf("%s prediction digest = %#x, want %#x", name, got, want)
		}
		h.Reset()
	}

	for _, cls := range classifiers {
		ds.Pyramid.EachTile(func(tl *Tile) bool {
			for _, mv := range []trace.Move{trace.None, trace.PanUp, trace.ZoomInNW, trace.ZoomOut} {
				word(uint64(cls.Predict(trace.Request{Coord: tl.Coord, Move: mv})))
			}
			return true
		})
	}
	check("phase", 0x9ca365778b934906)

	// Every history of at most three moves, oldest first; a session's
	// first request (None) leads until the window pushes it out.
	hists := [][]trace.Move{nil}
	for i := 0; i < len(hists); i++ {
		if len(hists[i]) < 3 {
			for _, mv := range trace.AllMoves() {
				hists = append(hists, append(slices.Clone(hists[i]), mv))
			}
		}
	}
	cur := Coord{Level: 3, Y: 3, X: 4}
	near, far := recommend.Candidates(ds.Pyramid, cur, 1), recommend.Candidates(ds.Pyramid, cur, 2)
	for _, moves := range hists {
		hist := trace.NewHistory(3)
		hist.Push(trace.Request{Move: trace.None})
		for _, mv := range moves {
			hist.Push(trace.Request{Move: mv})
		}
		for _, cands := range [][]recommend.Candidate{near, far} {
			ranking(ab.Predict(trace.Request{Coord: cur}, cands, hist))
		}
	}
	check("markov3", 0x8ef01b060652ae03)

	for _, sb := range []struct {
		name  string
		model *recommend.SB
		want  uint64
	}{
		{"sb", recommend.NewSB(ds.Pyramid), 0xe8cb843cd00fdbf9},
		{"sb:sift", recommend.NewSB(ds.Pyramid, recommend.WithSignatures(sig.NameSIFT)), 0x15ce918be4676243},
	} {
		hist := trace.NewHistory(3)
		for _, r := range traces[0].Requests {
			sb.model.Observe(r)
			hist.Push(r)
			ranking(sb.model.Predict(r, recommend.Candidates(ds.Pyramid, r.Coord, 1), hist))
		}
		check(sb.name, sb.want)
	}
}

// TestABOrderPin pins every AB answer the Markov-order sweep can ask for
// on TestPredictionPin's 7/512 world: one FNV-64a over the score bits and
// coordinate of each ranking AB.Predict returns, for orders 1–10, at every
// request of every SimulateStudy(7) trace, at d = 1 and d = 2.
func TestABOrderPin(t *testing.T) {
	ds, err := BuildWorld(WorldConfig{Seed: 7, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	traces := ds.SimulateStudy(7)
	h := fnv.New64a()
	var b [8]byte
	for order := 1; order <= 10; order++ {
		ab, err := recommend.NewAB(order, traces)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			hist := trace.NewHistory(10)
			for _, r := range tr.Requests {
				hist.Push(r)
				for d := 1; d <= 2; d++ {
					for _, x := range ab.Predict(r, recommend.Candidates(ds.Pyramid, r.Coord, d), hist) {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(x.Score))
						h.Write(b[:])
						io.WriteString(h, x.Coord.String())
					}
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x8ac04655a4b62e2e); got != want {
		t.Errorf("AB order-sweep digest = %#x, want %#x", got, want)
	}
}

func TestAsyncServerFacade(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, PrefetchWorkers: 4,
		SharedTiles: 64, MaxSessions: 8, SessionTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two analysts walk the same path through one shared scheduler.
	walk := []Coord{{}, {Level: 1}, {Level: 2}}
	for _, session := range []string{"alice", "bob"} {
		c := client.New(ts.URL, session)
		for _, coord := range walk {
			if _, _, err := c.Tile(coord); err != nil {
				t.Fatalf("%s: %v", session, err)
			}
		}
	}
	if sched == nil {
		t.Fatal("async server should build a scheduler")
	}
	sched.Drain()
	st := sched.Stats()
	if st.Queued == 0 || st.Completed == 0 {
		t.Errorf("scheduler never ran: %+v", st)
	}
	if st.Pending != 0 || st.Inflight != 0 {
		t.Errorf("scheduler not drained: %+v", st)
	}
	if srv.Sessions() != 2 {
		t.Errorf("sessions = %d, want 2", srv.Sessions())
	}
}

// TestShardedServerFacade proves the Shards knob wires the sharded
// scheduler: engines bind to their home scheduler shard, the fleet's
// prefetches spread over the shards, and the learned loops stay
// deployment-wide.
func TestShardedServerFacade(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, Shards: 4, PrefetchWorkers: 4,
		UtilityLearning: true, AdaptiveAllocation: true, Hotspot: true,
		MetricsEndpoint: true, SharedTiles: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	walk := []Coord{{}, {Level: 1}, {Level: 2}}
	const fleet = 12
	for i := 0; i < fleet; i++ {
		c := client.New(ts.URL, fmt.Sprintf("analyst-%d", i))
		for _, coord := range walk {
			if _, _, err := c.Tile(coord); err != nil {
				t.Fatalf("analyst %d: %v", i, err)
			}
		}
	}
	sched.Drain()
	st, per := sched.Snapshot()
	if st.Shards != 4 {
		t.Errorf("scheduler stats Shards = %d, want 4", st.Shards)
	}
	if st.Queued == 0 || st.Completed == 0 {
		t.Errorf("sharded scheduler never ran: %+v", st)
	}
	if srv.Sessions() != fleet {
		t.Errorf("sessions = %d, want %d", srv.Sessions(), fleet)
	}
	// The fleet's prefetches spread over more than one scheduler shard.
	nonzero := 0
	for _, sh := range per {
		if sh.Queued > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Errorf("%d sessions queued prefetches on %d shard(s), want spread over at least 2", fleet, nonzero)
	}
	// Learned state is deployment-wide: one utility curve fed by every
	// shard's outcomes.
	if st.UtilityObservations == 0 {
		t.Error("deployment-wide feedback collector saw no outcomes from the sharded fleet")
	}
}

// TestSessionCapIsExact: MaxSessions caps the deployment's live sessions
// exactly, wherever the ids hash — four sessions that share a scheduler
// shard all fit under a cap of four, and a fifth evicts only the least
// recently used of them.
func TestSessionCapIsExact(t *testing.T) {
	ds, traces := testWorld(t)
	srv, err := ds.NewServer(traces, MiddlewareConfig{AsyncPrefetch: true, Shards: 2, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ids []string
	for i := 0; len(ids) < 5; i++ {
		if id := fmt.Sprintf("analyst-%d", i); shard.NewRing(2).Locate(id) == 0 {
			ids = append(ids, id)
		}
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	// table reads /stats' server-wide session counts.
	table := func() (live, evicted int) {
		var st struct{ Sessions, Evicted int }
		if err := json.Unmarshal(get("/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Sessions, st.Evicted
	}
	for _, id := range ids[:4] {
		get("/tile?level=0&y=0&x=0&session=" + id)
	}
	if live, evicted := table(); live != 4 || evicted != 0 {
		t.Fatalf("four sessions under a cap of four: live %d, evicted %d", live, evicted)
	}
	get("/tile?level=0&y=0&x=0&session=" + ids[4])
	if live, evicted := table(); live != 4 || evicted != 1 {
		t.Fatalf("a fifth session: live %d, evicted %d, want 4 and 1", live, evicted)
	}
	for i, id := range ids {
		var st struct {
			Cache *json.RawMessage `json:"cache"`
		}
		if err := json.Unmarshal(get("/stats?session="+id).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if alive := st.Cache != nil; alive != (i != 0) {
			t.Errorf("session %s (request %d) alive = %v; only the least recently used should be gone", id, i, alive)
		}
	}
}

// TestTracingServerFacade proves the Tracing knob wires the
// observability pipeline end to end: traced tile responses carry
// X-Trace-ID, /debug/traces serves the per-span breakdowns, and /metrics
// grows the latency histogram families.
func TestTracingServerFacade(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, PrefetchWorkers: 2,
		MetricsEndpoint: true, Tracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	// A zoom-in walk: every request must come back with a trace id.
	for i, path := range []string{
		"/tile?level=0&y=0&x=0&session=tracer",
		"/tile?level=1&y=0&x=0&session=tracer",
		"/tile?level=2&y=0&x=0&session=tracer",
	} {
		code, _, hdr := get(path)
		if code != 200 {
			t.Fatalf("tile %d: status %d", i, code)
		}
		if hdr.Get("X-Trace-ID") == "" {
			t.Fatalf("tile %d: no X-Trace-ID", i)
		}
	}
	sched.Drain()

	code, body, _ := get("/debug/traces?n=8")
	if code != 200 {
		t.Fatalf("/debug/traces: status %d", code)
	}
	var dbg struct {
		Capacity int `json:"capacity"`
		Stored   int `json:"stored"`
		Traces   []struct {
			Outcome string `json:"outcome"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	if dbg.Capacity != 256 || dbg.Stored != 3 {
		t.Errorf("trace buffer = cap %d stored %d, want cap 256 stored 3", dbg.Capacity, dbg.Stored)
	}
	spanNames := map[string]bool{}
	for _, tr := range dbg.Traces {
		if tr.Outcome != "hit" && tr.Outcome != "miss" {
			t.Errorf("served request traced as %q, want hit or miss", tr.Outcome)
		}
		for _, sp := range tr.Spans {
			spanNames[sp.Name] = true
		}
	}
	// The cold first request misses, so the backend-fetch span must appear
	// somewhere even if prefetching turns the rest of the walk into hits.
	for _, want := range []string{"session", "cache_lookup", "backend_fetch", "prefetch"} {
		if !spanNames[want] {
			t.Errorf("no %q span across traces (got %v)", want, spanNames)
		}
	}

	code, body, _ = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, family := range []string{
		"forecache_request_duration_seconds",
		"forecache_prefetch_queue_wait_seconds",
		"forecache_backend_fetch_duration_seconds",
		"forecache_prefetch_lead_time_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+family+" histogram") {
			t.Errorf("/metrics missing histogram family %s", family)
		}
	}
	// Every request of the walk lands in exactly one outcome's histogram.
	total := 0.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `forecache_request_duration_seconds_count{outcome="`) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			total += v
		}
	}
	if total != 3 {
		t.Errorf("request histogram counts sum to %v, want 3", total)
	}
}

// TestMetricsScrapePin holds the shape of /metrics for a deployment with
// every feature on: the family list, help strings, types, label sets and
// label escaping, with each sample's value masked. The walk is three tiles
// (L0, L1, L2) under a session id holding a quote and a backslash, then a
// drain; the masked scrape's FNV-64a digest is pinned. A deliberate change
// to the exposition updates the digest in the same change.
func TestMetricsScrapePin(t *testing.T) {
	const want = 0x82a2bfbd22781229
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, Push: true, Shards: 2, PrefetchWorkers: 2,
		UtilityLearning: true, AdaptiveAllocation: true, Hotspot: true,
		BinaryTiles: true, MetricsEndpoint: true, Tracing: true,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	session := url.QueryEscape(`ana"lyst\1`)
	for level := range 3 {
		get(fmt.Sprintf("/tile?level=%d&y=0&x=0&session=%s", level, session))
	}
	sched.Drain()
	var masked strings.Builder
	for _, line := range strings.SplitAfter(get("/metrics"), "\n") {
		if sp := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") && sp >= 0 {
			line = line[:sp] + " V\n"
		}
		masked.WriteString(line)
	}
	h := fnv.New64a()
	io.WriteString(h, masked.String())
	if got := h.Sum64(); got != want {
		t.Errorf("masked /metrics digest = %#x, want %#x; the scrape:\n%s", got, uint64(want), masked.String())
	}
}

// replayStudy replays the first n study traces through a server (one
// session per trace, scheduler drained after every request so async
// deliveries are deterministic) and reports hits and total requests.
func replayStudy(t *testing.T, sched *Scheduler, ts *httptest.Server, traces []*Trace, n int) (hits, total int) {
	t.Helper()
	for i, tr := range traces[:n] {
		c := client.New(ts.URL, fmt.Sprintf("trace-%d", i))
		for _, req := range tr.Requests {
			_, info, err := c.Tile(req.Coord)
			if err != nil {
				t.Fatalf("trace %d request %v: %v", i, req.Coord, err)
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

// TestUtilityLearningConvergence closes the acceptance loop on the eval
// traces: with UtilityLearning enabled the position-utility curve is fit
// from real cache outcomes (converging away from the static 0.85^p guess,
// monotone, exported identically via /metrics), and the overall cache hit
// rate is no worse than the static-decay baseline's on the same replay.
func TestUtilityLearningConvergence(t *testing.T) {
	ds, traces := testWorld(t)
	const nTraces = 6
	run := func(learning bool) (hitRate float64, st PrefetchStats, metricsBody string) {
		srv, sched, err := ds.newServer(traces, MiddlewareConfig{
			AsyncPrefetch: true, PrefetchWorkers: 4,
			UtilityLearning: learning, MetricsEndpoint: true,
			SharedTiles: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		hits, total := replayStudy(t, sched, ts, traces, nTraces)
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body strings.Builder
		if _, err := io.Copy(&body, resp.Body); err != nil {
			t.Fatal(err)
		}
		return float64(hits) / float64(total), sched.Stats(), body.String()
	}

	baseRate, baseStats, _ := run(false)
	if baseStats.UtilityCurve != nil || baseStats.UtilityObservations != 0 {
		t.Errorf("baseline should have no learned curve: %+v", baseStats.UtilityCurve)
	}

	learnedRate, learnedStats, metrics := run(true)

	// Acceptance: learned hit rate >= the static-0.85 baseline.
	if learnedRate < baseRate {
		t.Errorf("learned hit rate %.4f < static baseline %.4f", learnedRate, baseRate)
	}

	// The curve converged: fit from hundreds of outcomes, anchored at 1,
	// monotone non-increasing, and no longer the static guess.
	curve := learnedStats.UtilityCurve
	if len(curve) != 5 {
		t.Fatalf("learned curve = %v, want 5 positions (K=5)", curve)
	}
	if learnedStats.UtilityObservations < 150 {
		t.Errorf("only %d observations; replay should produce >= 150", learnedStats.UtilityObservations)
	}
	if curve[0] != 1 {
		t.Errorf("curve[0] = %v, want 1", curve[0])
	}
	diverged := false
	for p := 1; p < len(curve); p++ {
		if curve[p] > curve[p-1]+1e-12 {
			t.Errorf("curve not monotone at %d: %v", p, curve)
		}
		if curve[p] <= 0 || curve[p] > 1 {
			t.Errorf("curve[%d] = %v outside (0,1]", p, curve[p])
		}
		if diff := curve[p] - math.Pow(0.85, float64(p)); math.Abs(diff) > 0.02 {
			diverged = true
		}
	}
	if !diverged {
		t.Errorf("curve %v never diverged from the static guess; learning is not wired", curve)
	}

	// /metrics exports the same converged curve, point for point.
	for p, f := range curve {
		want := fmt.Sprintf(`forecache_utility_position_factor{position="%d"} %s`,
			p, strconv.FormatFloat(f, 'g', -1, 64))
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "forecache_utility_observations_total") {
		t.Error("/metrics missing the utility observations family")
	}
}

func TestSyncServerFacadeHasNoScheduler(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if sched != nil {
		t.Error("synchronous server should not build a scheduler")
	}
}

// TestServerTrainsModelsOnce: the phase classifier and the Markov chain are
// trained exactly once per server, at construction — creating the 2nd..Nth
// session performs zero training (the counting hook would fire again).
func TestServerTrainsModelsOnce(t *testing.T) {
	ds, traces := testWorld(t)
	var trainings atomic.Int32
	trainHook = func(string) { trainings.Add(1) }
	defer func() { trainHook = nil }()

	srv, err := ds.NewServer(traces, MiddlewareConfig{AsyncPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	afterBuild := trainings.Load()
	if afterBuild != 2 { // one Markov chain + one classifier
		t.Fatalf("server construction trained %d artifacts, want 2", afterBuild)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 5; i++ {
		c := client.New(ts.URL, fmt.Sprintf("analyst-%d", i))
		for _, coord := range []Coord{{}, {Level: 1}} {
			if _, _, err := c.Tile(coord); err != nil {
				t.Fatalf("analyst-%d: %v", i, err)
			}
		}
	}
	if srv.Sessions() != 5 {
		t.Fatalf("sessions = %d, want 5", srv.Sessions())
	}
	if got := trainings.Load(); got != afterBuild {
		t.Errorf("sessions 1..5 trained %d extra artifacts, want 0 (train once, share everywhere)",
			got-afterBuild)
	}
}

// TestNewMiddlewareStillTrainsPerCall: the synchronous facade keeps its
// per-call training semantics (the eval harness depends on fresh models).
func TestNewMiddlewareStillTrainsPerCall(t *testing.T) {
	ds, traces := testWorld(t)
	var trainings atomic.Int32
	trainHook = func(string) { trainings.Add(1) }
	defer func() { trainHook = nil }()
	for i := 0; i < 2; i++ {
		if _, err := ds.NewMiddleware(traces, MiddlewareConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := trainings.Load(); got != 4 {
		t.Errorf("two NewMiddleware calls trained %d artifacts, want 4", got)
	}
}

// TestAdaptiveServerFacade wires the adaptive scheduler through the
// facade: the global budget and decay reach the scheduler, and /stats
// reports the pressure signal.
func TestAdaptiveServerFacade(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{AsyncPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := client.New(ts.URL, "alice")
	for _, coord := range []Coord{{}, {Level: 1}} {
		if _, _, err := c.Tile(coord); err != nil {
			t.Fatal(err)
		}
	}
	sched.Drain()
	st := sched.Stats()
	if st.Pressure != 0 {
		t.Errorf("drained pressure = %v, want 0", st.Pressure)
	}
	if st.PeakPending > globalQueueBudget {
		t.Errorf("PeakPending = %d, global budget %d exceeded", st.PeakPending, globalQueueBudget)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["pressure"]; !ok {
		t.Error("/stats missing pressure")
	}
}

// TestSharedArtifactsSkipTraining: a bundle from Dataset.Train supplied
// via MiddlewareConfig.Artifacts makes both NewMiddleware and NewServer
// construction train nothing at all — the registry's shared-artifact path.
func TestSharedArtifactsSkipTraining(t *testing.T) {
	ds, traces := testWorld(t)
	var trainings atomic.Int32
	trainHook = func(string) { trainings.Add(1) }
	defer func() { trainHook = nil }()

	cfg := MiddlewareConfig{Hotspot: true}
	arts, err := ds.Train(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainings.Load(); got != 2 { // markov3 + classifier
		t.Fatalf("Train trained %d artifacts, want 2", got)
	}
	if models := arts.Models(); len(models) != 3 {
		t.Fatalf("artifact models = %v, want 3 (hotspot registered)", models)
	}

	cfg.Artifacts = arts
	for i := 0; i < 2; i++ {
		mw, err := ds.NewMiddleware(traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mw.Request(Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ds.NewServer(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := trainings.Load(); got != 2 {
		t.Errorf("constructions with supplied artifacts trained %d extra artifacts, want 0", got-2)
	}

	// A bundle whose model shape disagrees with the config (trained
	// without the hotspot, config asks for it) must be rejected, not
	// silently served.
	mismatch := cfg
	mismatch.Hotspot = false
	if _, err := ds.NewMiddleware(traces, mismatch); err == nil {
		t.Error("NewMiddleware should reject artifacts whose model set mismatches the config")
	}
	if srv, err := ds.NewServer(traces, mismatch); err == nil {
		srv.Close()
		t.Error("NewServer should reject artifacts whose model set mismatches the config")
	}
}

// TestHotspotServerLearnsConsumption: with Hotspot on, one session's
// consumption is visible to another session's predictions through the
// shared table (the cross-session loop, end to end over HTTP).
func TestHotspotServerLearnsConsumption(t *testing.T) {
	ds, traces := testWorld(t)
	srv, sched, err := ds.newServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, PrefetchWorkers: 4, Hotspot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	walk := []Coord{{}, {Level: 1}, {Level: 2}, {Level: 1}, {}}
	for _, session := range []string{"alice", "bob"} {
		c := client.New(ts.URL, session)
		for _, coord := range walk {
			if _, _, err := c.Tile(coord); err != nil {
				t.Fatalf("%s: %v", session, err)
			}
			sched.Drain()
		}
	}
	// Both engines exist and served; the deployment ran 3 models per
	// session without error. (The shared-table unit behavior is pinned in
	// internal/recommend; here we assert the full stack stays healthy.)
	if srv.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", srv.Sessions())
	}
}

// TestBinaryTilesFacade proves the BinaryTiles knob wires the whole
// zero-copy serving stack: the deployment-wide encoded cache feeds both
// /tile negotiation and push payloads, a binary-negotiating client sees
// exactly the tiles a default JSON client sees, and the encoded-cache
// metric families reach /metrics.
func TestBinaryTilesFacade(t *testing.T) {
	ds, traces := testWorld(t)
	srv, err := ds.NewServer(traces, MiddlewareConfig{
		AsyncPrefetch: true, Push: true,
		BinaryTiles: true, MetricsEndpoint: true, Tracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	walk := []Coord{{}, {Level: 1}, {Level: 2}}
	jc := client.New(ts.URL, "json-analyst")
	bc := client.New(ts.URL, "bin-analyst")
	bc.NegotiateBinary(true)
	for _, coord := range walk {
		jt, _, err := jc.Tile(coord)
		if err != nil {
			t.Fatalf("json client %v: %v", coord, err)
		}
		bt, _, err := bc.Tile(coord)
		if err != nil {
			t.Fatalf("binary client %v: %v", coord, err)
		}
		if bt.Coord != jt.Coord || bt.Size != jt.Size || len(bt.Data) != len(jt.Data) {
			t.Fatalf("%v: binary tile %+v != json tile %+v", coord, bt, jt)
		}
		for a := range jt.Data {
			for i := range jt.Data[a] {
				jb := math.Float64bits(jt.Data[a][i])
				bb := math.Float64bits(bt.Data[a][i])
				if jb != bb {
					t.Fatalf("%v attr %d cell %d: %x != %x", coord, a, i, bb, jb)
				}
			}
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"forecache_tile_encode_cache_hits_total",
		"forecache_tile_encode_misses_total",
		"forecache_tile_encode_duration_seconds_bucket",
		"forecache_tile_response_bytes_bucket",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}
