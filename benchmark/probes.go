package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"forecache"
	"forecache/internal/backend"
	"forecache/internal/cache"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/persist"
	"forecache/internal/phase"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/shard"
	"forecache/internal/sig"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Layer probes: after the workloads, each layer's public functions are
// called directly on inputs drawn from the study schedule (and, where a
// metric ends in _walk, again on the walk schedule), timing each call.
// Every probe reports a mean, because the budget table adds means up.

// probeInputs is what the probes draw on: one world, its training study and
// both schedules.
type probeInputs struct {
	ds     *forecache.Dataset
	train  []*forecache.Trace
	study  [][]trace.Request
	walk   [][]trace.Request
	outDir string
	// scale shrinks every probe's iteration count (the smoke run uses a
	// small fraction).
	scale float64
	// tracedScale is the traced runs' scale: the core.request probe replays
	// exactly as many requests as paper_pull's traced run.
	tracedScale float64
}

func (in probeInputs) iters(n int) int { return max(16, int(float64(n)*in.scale)) }

// timeEach times every call on its own; right for calls of a microsecond
// or more, where two clock reads are noise.
func timeEach(n int, op func(i int)) (meanNS float64, calls int) {
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		op(i)
		total += time.Since(start)
	}
	return float64(total) / float64(n), n
}

// timeBatch times calls in batches of 256 between clock reads; right for
// calls of tens of nanoseconds.
func timeBatch(n int, op func(i int)) (meanNS float64, calls int) {
	const batch = 256
	n = (n + batch - 1) / batch * batch
	var total time.Duration
	for i := 0; i < n; i += batch {
		start := time.Now()
		for j := i; j < i+batch; j++ {
			op(j)
		}
		total += time.Since(start)
	}
	return float64(total) / float64(n), n
}

// flatten joins a schedule's traces into one request list.
func flatten(sched [][]trace.Request) []trace.Request {
	var out []trace.Request
	for _, tr := range sched {
		out = append(out, tr...)
	}
	return out
}

// runProbes runs every layer probe and returns its metrics.
func runProbes(in probeInputs) (metricSet, error) {
	ms := metricSet{}
	pyr := in.ds.Pyramid

	// The probes train their own artifacts through the layers' public
	// constructors (the facade's bundle is opaque): the three-model
	// registry of the fleet deployments and the phase classifier.
	reg, err := recommend.NewRegistry(recommend.DefaultSpecs(3, []string{sig.NameSIFT}, &recommend.HotspotConfig{})...)
	if err != nil {
		return nil, err
	}
	set, err := reg.Build(recommend.Env{Tiles: pyr, Traces: in.train})
	if err != nil {
		return nil, err
	}
	labeled := phase.Requests(in.train)
	if len(labeled) > 800 { // the facade's MaxClassifierRequests default
		labeled = labeled[:800]
	}
	cls, err := phase.Train(labeled, phase.TrainConfig{})
	if err != nil {
		return nil, err
	}

	studyReqs := flatten(in.study)
	var tiles []*tile.Tile
	for _, r := range studyReqs[:min(len(studyReqs), 512)] {
		t, err := pyr.Tile(r.Coord)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, t)
	}
	var allCoords []tile.Coord
	pyr.EachTile(func(t *tile.Tile) bool {
		allCoords = append(allCoords, t.Coord)
		return true
	})

	if err := probeCore(in, ms); err != nil {
		return nil, err
	}
	probeShard(in, ms)
	if err := probeAllocation(in, ms, set); err != nil {
		return nil, err
	}
	probeRecommend(in, ms, set, cls)
	probeCache(in, ms, tiles)
	probePrefetch(in, ms, studyReqs)
	if err := probeBackend(in, ms, studyReqs, allCoords); err != nil {
		return nil, err
	}
	if err := probeTile(in, ms, tiles, allCoords); err != nil {
		return nil, err
	}
	if err := probePush(in, ms, tiles); err != nil {
		return nil, err
	}
	if err := probePersist(in, ms, set, studyReqs); err != nil {
		return nil, err
	}
	probeObs(in, ms)
	if err := probeHandler(in, ms); err != nil {
		return nil, err
	}
	return ms, nil
}

// probeCore replays paper_pull's traced-run schedule — same slots, same
// session generations, same request count — through synchronous
// NewMiddleware engines, one per session id. Its hit count must equal the
// traced run's: two routes to one number. The walk schedule follows, one
// engine per walk.
func probeCore(in probeInputs, ms metricSet) error {
	w, _ := findWorkload("paper_pull")
	cfg := w.Config
	cfg.Latency = benchLatency
	arts, err := in.ds.Train(in.train, cfg)
	if err != nil {
		return err
	}
	cfg.Artifacts = arts
	perWorker := w.tracedCount(in.tracedScale) / workerCount
	var total time.Duration
	calls, hits := 0, 0
	for _, slots := range newSlots(w, in.study) {
		engines := make([]*core.Engine, len(slots))
		for i := 0; i < perWorker; i++ {
			si := i % len(slots)
			req, fresh := slots[si].advance()
			if fresh {
				if engines[si], err = in.ds.NewMiddleware(nil, cfg); err != nil {
					return err
				}
			}
			start := time.Now()
			resp, err := engines[si].Request(req.Coord)
			total += time.Since(start)
			if err != nil {
				return fmt.Errorf("core.request probe: %w", err)
			}
			calls++
			if resp.Hit {
				hits++
			}
		}
	}
	ms.set("core.request_us", float64(total)/float64(calls)/1e3, "us", calls)
	ms.set("core.request_hits", float64(hits), "count", calls)

	total, calls = 0, 0
	for _, walk := range in.walk[:min(len(in.walk), in.iters(len(in.walk)))] {
		eng, err := in.ds.NewMiddleware(nil, cfg)
		if err != nil {
			return err
		}
		for _, req := range walk {
			start := time.Now()
			_, err := eng.Request(req.Coord)
			total += time.Since(start)
			if err != nil {
				return fmt.Errorf("core.request walk probe: %w", err)
			}
			calls++
		}
	}
	ms.set("core.request_walk_us", float64(total)/float64(calls)/1e3, "us", calls)
	return nil
}

func probeShard(in probeInputs, ms metricSet) {
	ring := shard.NewRing(2)
	ids := make([]string, 512)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d-s%d-g%d", i%2, i%32, i)
	}
	sink := 0
	ns, n := timeBatch(in.iters(1<<20), func(i int) { sink += ring.Locate(ids[i%len(ids)]) })
	_ = sink
	ms.set("shard.locate_ns", ns, "ns", n)
}

func probeAllocation(in probeInputs, ms metricSet, set *recommend.Set) error {
	static, err := core.NewRegistryPolicy(set.Columns())
	if err != nil {
		return err
	}
	phases := trace.AllPhases()
	ns, n := timeBatch(in.iters(1<<18), func(i int) { static.Allocations(phases[i%len(phases)], 5) })
	ms.set("core.allocate_static_ns", ns, "ns", n)

	// Warm the feedback collector past the policy's warm-up so Allocations
	// takes the learned path, not the prior's.
	fc := prefetch.NewFeedbackCollector(5)
	for i := 0; i < 600; i++ {
		for mi, model := range set.Names() {
			fc.Observe(phases[i%len(phases)], model, i%5, (i+mi)%3 != 0)
		}
	}
	adaptive, err := core.NewAdaptivePolicy(static, set.Names(), fc, core.AdaptiveConfig{})
	if err != nil {
		return err
	}
	ns, n = timeBatch(in.iters(1<<18), func(i int) { adaptive.Allocations(phases[i%len(phases)], 5) })
	ms.set("core.allocate_adaptive_ns", ns, "ns", n)
	return nil
}

// probeRecommend walks each schedule the way an engine does — history
// pushed, models observing — and times candidate generation, each model's
// Predict and the phase classifier.
func probeRecommend(in probeInputs, ms metricSet, set *recommend.Set, cls *phase.Classifier) {
	pyr := in.ds.Pyramid
	// Registry order is AB, SB, hotspot; give the online hotspot table
	// something to rank with.
	metricNames := []string{"recommend.ab_predict", "recommend.sb_predict", "recommend.hotspot_predict"}
	if hs := set.Hotspot(); hs != nil {
		for _, r := range flatten(in.study) {
			hs.ObserveConsumption(r.Coord, r.Phase)
		}
	}
	for _, sc := range []struct {
		suffix string
		sched  [][]trace.Request
	}{{"_us", in.study}, {"_walk_us", in.walk}} {
		predict := make([]time.Duration, len(metricNames))
		var candidates, classify time.Duration
		calls, limit := 0, 0
		for _, tr := range sc.sched {
			limit += len(tr)
		}
		limit = in.iters(limit)
		for _, tr := range sc.sched {
			models := set.Session()
			h := trace.NewHistory(3)
			for _, req := range tr {
				if calls == limit {
					break
				}
				h.Push(req)
				for _, m := range models {
					m.Observe(req)
				}
				start := time.Now()
				cands := recommend.Candidates(pyr, req.Coord, 1)
				candidates += time.Since(start)
				for mi, m := range models {
					start := time.Now()
					m.Predict(req, cands, h)
					predict[mi] += time.Since(start)
				}
				start = time.Now()
				cls.Predict(req)
				classify += time.Since(start)
				calls++
			}
		}
		for mi, name := range metricNames {
			ms.set(name+sc.suffix, float64(predict[mi])/float64(calls)/1e3, "us", calls)
		}
		if sc.suffix == "_us" {
			ms.set("recommend.candidates_ns", float64(candidates)/float64(calls), "ns", calls)
			ms.set("phase.predict_ns", float64(classify)/float64(calls), "ns", calls)
		}
	}
}

func probeCache(in probeInputs, ms metricSet, tiles []*tile.Tile) {
	const model = "markov3"
	m := cache.NewManager(core.DefaultConfig().RecentTiles)
	m.SetAllocations(map[string]int{model: 4})
	m.FillPredictions(model, tiles[:4], trace.Navigation)
	hit := tiles[1].Coord
	ns, n := timeBatch(in.iters(1<<19), func(int) { m.Lookup(hit) })
	ms.set("cache.lookup_hit_ns", ns, "ns", n)
	absent := tile.Coord{Level: 40}
	ns, n = timeBatch(in.iters(1<<19), func(int) { m.Lookup(absent) })
	ms.set("cache.lookup_miss_ns", ns, "ns", n)
	// Alternate two disjoint batches so every fill evicts a full region
	// unconsumed and indexes a new one.
	batches := [2][]*tile.Tile{tiles[8:12], tiles[12:16]}
	ns, n = timeEach(in.iters(1<<16), func(i int) { m.FillPredictions(model, batches[i%2], trace.Navigation) })
	ms.set("cache.fill_us", ns/1e3, "us", n)
	ns, n = timeBatch(in.iters(1<<19), func(i int) { m.InsertRecent(tiles[i%len(tiles)]) })
	ms.set("cache.insert_recent_ns", ns, "ns", n)
}

// batchFor builds the prefetch batch an engine would submit after req: the
// first k candidates, scored by rank.
func batchFor(pyr *tile.Pyramid, req trace.Request, k int, deliver func(*tile.Tile)) []prefetch.Request {
	cands := recommend.Candidates(pyr, req.Coord, 1)
	cands = cands[:min(k, len(cands))]
	out := make([]prefetch.Request, len(cands))
	for i, c := range cands {
		out[i] = prefetch.Request{Coord: c.Coord, Score: 1 / float64(i+1), Model: "markov3", Deliver: deliver}
	}
	return out
}

// slowStore is a benchmark-owned backend.Store whose prefetch fetches cost
// time. Through the facade they never do (DBMS.FetchQuiet does not charge
// the clock), so this probe is the only place the scheduler's queue builds.
type slowStore struct {
	*backend.DBMS
	delay time.Duration
}

func (s slowStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	time.Sleep(s.delay)
	return s.DBMS.FetchQuiet(c)
}

func probePrefetch(in probeInputs, ms metricSet, reqs []trace.Request) {
	pyr := in.ds.Pyramid
	db := backend.NewDBMS(pyr, benchLatency, nil)
	// The facade's scheduler sizing.
	cfg := prefetch.Config{Workers: 4, QueuePerSession: 64, GlobalQueue: 1024, DecayHalfLife: 2 * time.Second}

	// Instant store: Submit cost, and the wait from Submit being called to
	// each entry's Deliver callback.
	sched := prefetch.NewScheduler(db, cfg)
	var mu sync.Mutex
	var submitted time.Time // when the current batch's Submit was called
	var waitTotal time.Duration
	delivered := 0
	deliver := func(*tile.Tile) {
		now := time.Now()
		mu.Lock()
		waitTotal += now.Sub(submitted)
		delivered++
		mu.Unlock()
	}
	var submitTotal time.Duration
	n := in.iters(4000)
	for i := 0; i < n; i++ {
		batch := batchFor(pyr, reqs[i%len(reqs)], 5, deliver)
		start := time.Now()
		mu.Lock()
		submitted = start
		mu.Unlock()
		sched.Submit(fmt.Sprintf("s%d", i%8), batch)
		submitTotal += time.Since(start)
		sched.Drain()
	}
	sched.Close()
	ms.set("prefetch.submit_us", float64(submitTotal)/float64(n)/1e3, "us", n)
	ms.set("prefetch.deliver_wait_us", float64(waitTotal)/float64(max(delivered, 1))/1e3, "us", delivered)

	// Slow store: 32 sessions submit a batch every round; four workers at
	// 2 ms a fetch serve 2000 entries/s against 4000 offered, and the
	// global budget is below the 160 entries the sessions can hold, so
	// entries wait, get superseded and get shed.
	const sessions, roundEvery = 32, 40 * time.Millisecond
	cfg.GlobalQueue = 96
	slow := prefetch.NewScheduler(slowStore{DBMS: db, delay: 2 * time.Millisecond}, cfg)
	rounds := in.iters(25)
	for r := 0; r < rounds; r++ {
		next := time.Now().Add(roundEvery)
		for s := 0; s < sessions; s++ {
			slow.Submit(fmt.Sprintf("s%d", s), batchFor(pyr, reqs[(s*131+r)%len(reqs)], 5, nil))
		}
		time.Sleep(time.Until(next))
	}
	slow.Drain()
	st := slow.Stats()
	slow.Close()
	queued := float64(max(st.Queued, 1))
	ms.set("prefetch.slow_queue_wait_ms", float64(st.AvgQueueLatency)/1e6, "ms", st.Queued)
	ms.set("prefetch.slow_shed_share", float64(st.Shed)/queued, "ratio", st.Queued)
	ms.set("prefetch.slow_completed_share", float64(st.Completed)/queued, "ratio", st.Queued)
}

func probeBackend(in probeInputs, ms metricSet, reqs []trace.Request, all []tile.Coord) error {
	pyr := in.ds.Pyramid
	db := backend.NewDBMS(pyr, benchLatency, nil)
	var err error
	fetch := func(s backend.Store, c tile.Coord) {
		if _, ferr := s.Fetch(c); ferr != nil {
			err = ferr
		}
	}
	ns, n := timeBatch(in.iters(1<<19), func(i int) { fetch(db, reqs[i%len(reqs)].Coord) })
	ms.set("backend.dbms_fetch_ns", ns, "ns", n)
	// A pool that holds every tile only misses while it fills.
	warm := backend.NewSharedPool(db, len(all))
	for _, c := range all {
		fetch(warm, c)
	}
	ns, n = timeBatch(in.iters(1<<19), func(i int) { fetch(warm, reqs[i%len(reqs)].Coord) })
	ms.set("backend.pool_hit_ns", ns, "ns", n)
	// A 64-tile pool swept over 1365 tiles in order never hits: every
	// fetch goes through, inserts and evicts.
	cold := backend.NewSharedPool(db, 64)
	ns, n = timeBatch(in.iters(1<<18), func(i int) { fetch(cold, all[i%len(all)]) })
	ms.set("backend.pool_miss_ns", ns, "ns", n)
	return err
}

// gzipInto compresses plain the way the serving tier does: one reused
// writer, default level.
func gzipInto(zw *gzip.Writer, buf *bytes.Buffer, plain []byte) ([]byte, error) {
	buf.Reset()
	zw.Reset(buf)
	if _, err := zw.Write(plain); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

func probeTile(in probeInputs, ms metricSet, tiles []*tile.Tile, all []tile.Coord) error {
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	jsonBodies := make([][]byte, len(tiles))
	binBodies := make([][]byte, len(tiles))
	gzBodies := make([][]byte, len(tiles))
	// At least one pass over every tile, so the byte means cover them all.
	n := max(len(tiles), in.iters(4*len(tiles)))
	ns, calls := timeEach(n, func(i int) {
		b, e := tiles[i%len(tiles)].EncodeJSON()
		keep(e)
		jsonBodies[i%len(tiles)] = b
	})
	ms.set("tile.json_encode_us", ns/1e3, "us", calls)
	// What the serving tier runs when no encoded cache is configured:
	// json.Encoder re-validates and compacts the Marshaler's output.
	enc := json.NewEncoder(io.Discard)
	ns, calls = timeEach(n, func(i int) { keep(enc.Encode(tiles[i%len(tiles)])) })
	ms.set("tile.json_stream_encode_us", ns/1e3, "us", calls)
	ns, calls = timeEach(n, func(i int) {
		b, e := tile.EncodeBinary(tiles[i%len(tiles)])
		keep(e)
		binBodies[i%len(tiles)] = b
	})
	ms.set("tile.binary_encode_us", ns/1e3, "us", calls)
	if err != nil {
		return err
	}
	zw, buf := gzip.NewWriter(io.Discard), new(bytes.Buffer)
	ns, calls = timeEach(n, func(i int) {
		b, e := gzipInto(zw, buf, binBodies[i%len(tiles)])
		keep(e)
		gzBodies[i%len(tiles)] = b
	})
	ms.set("tile.gzip_us", ns/1e3, "us", calls)
	ns, calls = timeEach(n, func(i int) {
		var t tile.Tile
		keep(json.Unmarshal(jsonBodies[i%len(tiles)], &t))
	})
	ms.set("tile.json_decode_us", ns/1e3, "us", calls)
	ns, calls = timeEach(n, func(i int) {
		_, e := tile.DecodeBinary(binBodies[i%len(tiles)])
		keep(e)
	})
	ms.set("tile.binary_decode_us", ns/1e3, "us", calls)
	var jsonBytes, gzBytes float64
	for i := range tiles {
		jsonBytes += float64(len(jsonBodies[i]))
		gzBytes += float64(len(gzBodies[i]))
	}
	ms.set("tile.json_bytes", jsonBytes/float64(len(tiles)), "bytes", len(tiles))
	ms.set("tile.binary_gz_bytes", gzBytes/float64(len(tiles)), "bytes", len(tiles))

	// Encoded cache, hit path: everything resident.
	encodeBinary := func(c tile.Coord) func() ([]byte, error) {
		return func() ([]byte, error) {
			t, e := in.ds.Pyramid.Tile(c)
			if e != nil {
				return nil, e
			}
			return tile.EncodeBinary(t)
		}
	}
	warm := tile.NewEncodedCache(0, nil)
	for _, t := range tiles {
		_, e := warm.Get(t.Coord, tile.FormatBinary, false, encodeBinary(t.Coord))
		keep(e)
	}
	ns, calls = timeBatch(in.iters(1<<19), func(i int) {
		c := tiles[i%len(tiles)].Coord
		_, e := warm.Get(c, tile.FormatBinary, false, encodeBinary(c))
		keep(e)
	})
	ms.set("tile.enc_cache_hit_ns", ns, "ns", calls)
	// Miss path: cold_churn's 1 MiB budget swept over the whole pyramid in
	// order, so every Get encodes, inserts and evicts.
	cold := tile.NewEncodedCache(1<<20, nil)
	ns, calls = timeEach(in.iters(4*len(all)), func(i int) {
		c := all[i%len(all)]
		_, e := cold.Get(c, tile.FormatBinary, false, encodeBinary(c))
		keep(e)
	})
	ms.set("tile.enc_cache_miss_us", ns/1e3, "us", calls)
	return err
}

func probePush(in probeInputs, ms metricSet, tiles []*tile.Tile) error {
	reg := push.NewRegistry(push.Config{Encoded: tile.NewEncodedCache(0, nil)})
	defer reg.Close()
	st := reg.Attach("probe")
	frames := make([]push.Frame, 0, len(tiles))
	var refused int
	ns, n := timeEach(in.iters(1<<15), func(i int) {
		t := tiles[i%len(tiles)]
		if !reg.Push("probe", "markov3", t.Coord, 0.5, t) {
			refused++
		}
		// Receive at once so the stream's buffer never fills; the channel
		// op is tens of nanoseconds inside a microsecond enqueue.
		select {
		case f := <-st.Frames():
			if len(frames) < cap(frames) {
				frames = append(frames, f)
			}
		default:
		}
	})
	if refused > 0 {
		return fmt.Errorf("push probe: %d of %d frames refused", refused, n)
	}
	ms.set("push.enqueue_us", ns/1e3, "us", n)

	var err error
	encoded := make([][]byte, len(frames))
	var buf bytes.Buffer
	ns, n = timeEach(in.iters(4*len(frames)), func(i int) {
		buf.Reset()
		if _, e := push.Encode(&buf, frames[i%len(frames)]); e != nil {
			err = e
		}
		encoded[i%len(frames)] = bytes.Clone(buf.Bytes())
	})
	ms.set("push.frame_encode_us", ns/1e3, "us", n)
	if err != nil {
		return err
	}
	r := bytes.NewReader(nil)
	br := bufio.NewReader(r)
	ns, n = timeEach(in.iters(4*len(frames)), func(i int) {
		r.Reset(encoded[i%len(frames)])
		br.Reset(r)
		if _, e := push.Decode(br); e != nil {
			err = e
		}
	})
	ms.set("push.frame_decode_us", ns/1e3, "us", n)
	return err
}

// probePersist saves and restores a snapshot with all three learned-state
// families populated the way a fleet deployment's are.
func probePersist(in probeInputs, ms metricSet, set *recommend.Set, reqs []trace.Request) error {
	fc := prefetch.NewFeedbackCollector(5)
	phases := trace.AllPhases()
	for i := 0; i < 3000; i++ {
		for mi, model := range set.Names() {
			fc.Observe(phases[i%len(phases)], model, i%5, (i+mi)%3 != 0)
		}
	}
	static, err := core.NewRegistryPolicy(set.Columns())
	if err != nil {
		return err
	}
	adaptive, err := core.NewAdaptivePolicy(static, set.Names(), fc, core.AdaptiveConfig{})
	if err != nil {
		return err
	}
	for i := 0; i < 300; i++ {
		adaptive.Allocations(phases[i%len(phases)], 5)
	}
	hs := recommend.NewHotspot(recommend.HotspotConfig{})
	for _, r := range reqs {
		hs.ObserveConsumption(r.Coord, r.Phase)
	}
	if err := os.MkdirAll(in.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(in.outDir, "probe-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persist.NewStore(persist.Config{Dir: dir, Interval: -1},
		persist.Family{Name: "feedback", Version: prefetch.FeedbackStateVersion, Export: fc.ExportState, Import: fc.ImportState},
		persist.Family{Name: "allocation", Version: core.AllocationStateVersion, Export: adaptive.ExportState, Import: adaptive.ImportState},
		persist.Family{Name: "hotspot", Version: recommend.HotspotStateVersion, Export: hs.ExportState, Import: hs.ImportState},
	)
	if err != nil {
		return err
	}
	ns, n := timeEach(in.iters(100), func(int) {
		if e := store.Save(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	ms.set("persist.save_ms", ns/1e6, "ms", n)
	ns, n = timeEach(in.iters(100), func(int) {
		for family, result := range store.Restore() {
			if result != persist.ResultRestored {
				err = fmt.Errorf("persist probe: family %s: %s", family, result)
			}
		}
	})
	ms.set("persist.restore_ms", ns/1e6, "ms", n)
	return err
}

func probeObs(in probeInputs, ms metricSet) {
	h := obs.NewHistogram(obs.ExpBuckets(100e-6, 2, 16))
	ns, n := timeBatch(in.iters(1<<20), func(i int) { h.Observe(float64(i%4096) * 1e-6) })
	ms.set("obs.histogram_observe_ns", ns, "ns", n)
}

// probeHandler calls the paper_pull deployment's ServeHTTP directly on a
// ResponseRecorder: the study schedule inside long-lived sessions (warm),
// then every request under a session id of its own, so each pays engine
// construction and, past MaxSessions, an eviction.
func probeHandler(in probeInputs, ms metricSet) error {
	w, _ := findWorkload("paper_pull")
	cfg := w.Config
	cfg.Latency = benchLatency
	srv, err := in.ds.NewServer(in.train, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	serve := func(session string, c tile.Coord) time.Duration {
		url := fmt.Sprintf("/tile?session=%s&level=%d&y=%d&x=%d", session, c.Level, c.Y, c.X)
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("handler probe: %s: status %d", url, rec.Code)
		}
		return d
	}
	// Warm pass first: its 54 sessions fit under MaxSessions, so none is
	// evicted mid-trace. The fresh pass then churns the table.
	var warm, fresh time.Duration
	warmCalls, freshCalls := 0, 0
	limit := in.iters(1500)
	for ti, tr := range in.study {
		session := fmt.Sprintf("warm-%d", ti)
		serve(session, tr[0].Coord) // a session's first request is the other metric's
		for _, r := range tr[1:] {
			if warmCalls == limit {
				break
			}
			warm += serve(session, r.Coord)
			warmCalls++
		}
	}
	reqs := flatten(in.study)
	for _, r := range reqs[:min(limit, len(reqs))] {
		fresh += serve(fmt.Sprintf("fresh-%d", freshCalls), r.Coord)
		freshCalls++
	}
	if err != nil {
		return err
	}
	ms.set("server.handler_warm_us", float64(warm)/float64(warmCalls)/1e3, "us", warmCalls)
	ms.set("server.handler_new_session_us", float64(fresh)/float64(freshCalls)/1e3, "us", freshCalls)
	return nil
}
