package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"forecache/internal/obs"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// traced is the outcome of one traced run: the same workload on a fresh
// deployment with the program's Tracing and /metrics on and the benchmark's
// boundary spans recorded, driven for a fixed request count so that counts
// on a synchronous deployment repeat exactly.
type traced struct {
	w        workload
	tally    tally
	spans    []span
	prom     map[string]float64
	counters processCounters
	scrapeUS []float64
}

// runTraced sets up a traced deployment, drives it for nreq tile requests
// and scrapes /stats and /metrics once at the end.
func runTraced(w workload, sched [][]trace.Request, digests map[tile.Coord]uint64, nreq int, outDir string) (*traced, error) {
	d, err := setUp(w, true, outDir)
	if err != nil {
		return nil, err
	}
	g := newGenerator(d, sched, digests)
	g.budget = nreq / workerCount
	g.measuring.Store(true)
	g.run()
	g.wait()
	tr := &traced{w: w, tally: g.total()}
	for _, s := range tr.tally.scrapes {
		tr.scrapeUS = append(tr.scrapeUS, float64(s)/1e3)
	}
	scrapeErr := tr.scrape(d)
	tr.counters = d.counters()
	closeErr := d.close()
	tr.spans = resolveSpans(d.log.spans)
	if err := errors.Join(scrapeErr, closeErr); err != nil {
		return nil, err
	}
	if len(tr.tally.samples) == 0 {
		return nil, errors.Join(append([]error{errors.New("traced run completed no request")}, tr.tally.errs...)...)
	}
	return tr, nil
}

// scrape reads the program's two published surfaces once.
func (tr *traced) scrape(d *deployment) error {
	get := func(path string) ([]byte, error) {
		resp, err := http.Get(d.base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return body, err
	}
	start := time.Now()
	body, err := get("/stats")
	tr.scrapeUS = append(tr.scrapeUS, float64(time.Since(start))/1e3)
	if err != nil {
		return err
	}
	if !json.Valid(body) {
		return fmt.Errorf("GET /stats: body is not JSON")
	}
	if body, err = get("/metrics"); err != nil {
		return err
	}
	if tr.prom, err = obs.ParsePromText(string(body)); err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	return nil
}

// resolveSpans gives every backend.demand_wait span the request it stalled:
// the clock cannot see the request, but a demand fetch sleeps inside its
// handler, so the span belongs to a server.handle span that contains it
// (the earliest one not yet claimed, when two overlap).
func resolveSpans(spans []span) []span {
	var handles []int
	for i, s := range spans {
		if s.Name == "server.handle" {
			handles = append(handles, i)
		}
	}
	sort.Slice(handles, func(a, b int) bool { return spans[handles[a]].StartUS < spans[handles[b]].StartUS })
	claimed := make(map[int]bool)
	for i := range spans {
		s := &spans[i]
		if s.Name != "backend.demand_wait" {
			continue
		}
		for _, hi := range handles {
			h := spans[hi]
			if h.StartUS > s.StartUS {
				break
			}
			if !claimed[hi] && h.EndUS >= s.EndUS {
				claimed[hi] = true
				s.ID, s.Parent = h.ID, h.Name
				break
			}
		}
	}
	return spans
}

func (tr *traced) writeSpans(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+tr.w.Name+".json"), body, 0o644)
}

// ratio is a/b, and 0 when the base is 0 (a deployment without the layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the per-layer metrics of sources (a) boundary spans and
// (b) published counters.
func (tr *traced) metrics() metricSet {
	ms := metricSet{}
	nreq := len(tr.tally.samples)
	per := float64(nreq)
	p := func(name string) float64 { return tr.prom[name] }
	histMean := func(family string) (float64, int) {
		n := p(family + "_count")
		return ratio(p(family+"_sum"), n), int(n)
	}

	// (a) spans: both ends of the wire, matched on the shared request id.
	client := make(map[string]float64, nreq)
	var handle []float64
	var gap []float64
	for _, s := range tr.spans {
		if s.Name == "client.tile" {
			client[s.ID] = s.EndUS - s.StartUS
		}
	}
	for _, s := range tr.spans {
		if s.Name != "server.handle" {
			continue
		}
		handle = append(handle, s.EndUS-s.StartUS)
		if c, ok := client[s.ID]; ok {
			gap = append(gap, c-(s.EndUS-s.StartUS))
		}
	}
	sort.Float64s(handle)
	ms.set("client.transport_decode_us", mean(gap), "us", len(gap))
	ms.set("server.handle_us_mean", mean(handle), "us", len(handle))
	ms.set("server.handle_us_p50", quantile(handle, 0.5), "us", len(handle))
	ms.set("server.stats_scrape_us", mean(tr.scrapeUS), "us", len(tr.scrapeUS))
	ms.set("push.stream_bytes_per_req", float64(tr.counters.streamBytes)/per, "bytes", nreq)

	// (a) the benchmark clock: demand fetches that went to the DBMS, ones a
	// SharedPool answered, and the time requests really waited.
	ms.set("backend.demand_fetches_per_req", float64(tr.counters.clockMisses)/per, "count", nreq)
	ms.set("backend.pool_hits_per_req", float64(tr.counters.clockHits)/per, "count", nreq)
	ms.set("backend.demand_wait_ms_per_req", float64(tr.counters.slept)/1e6/per, "ms", nreq)

	// (b) published counters.
	evicted := p("forecache_sessions_evicted_total")
	ms.set("server.sessions_created", evicted+p("forecache_sessions"), "count", nreq)
	ms.set("server.sessions_evicted", evicted, "count", nreq)

	prefetched := p("forecache_cache_prefetched_total")
	ms.set("cache.prefetched_per_req", prefetched/per, "count", nreq)
	ms.set("cache.evicted_per_req", p("forecache_cache_evicted_total")/per, "count", nreq)
	ms.set("cache.consumed_share", ratio(p("forecache_cache_hits_total"), prefetched), "ratio", int(prefetched))
	lead, n := histMean("forecache_prefetch_lead_time_seconds")
	ms.set("cache.lead_time_ms_mean", lead*1e3, "ms", n)

	queued := p("forecache_prefetch_queued_total")
	dropped := p("forecache_prefetch_dropped_total")
	ms.set("prefetch.queued_per_req", queued/per, "count", nreq)
	ms.set("prefetch.coalesced_share", ratio(p("forecache_prefetch_coalesced_total"), queued), "ratio", int(queued))
	ms.set("prefetch.cross_shard_coalesced", p("forecache_prefetch_cross_shard_coalesced_total"), "count", int(queued))
	ms.set("prefetch.shed_share", ratio(p("forecache_prefetch_shed_total"), queued), "ratio", int(queued))
	ms.set("prefetch.dropped_share", ratio(dropped, queued+dropped), "ratio", int(queued+dropped))
	ms.set("prefetch.cancelled_share", ratio(p("forecache_prefetch_cancelled_total"), queued), "ratio", int(queued))
	ms.set("prefetch.peak_pending", p("forecache_prefetch_peak_pending"), "count", int(queued))
	wait, n := histMean("forecache_prefetch_queue_wait_seconds")
	ms.set("prefetch.queue_wait_us_mean", wait*1e6, "us", n)

	// Store-level fetches the prefetcher issued: every timed backend fetch
	// that was not a demand miss. An estimate of DBMS work, not a count of
	// it — SharedPool hits and cross-shard joins are in it, and the DBMS's
	// own query total is not published.
	fetches := p("forecache_backend_fetch_duration_seconds_count")
	ms.set("backend.prefetch_fetches_per_req", max(0, fetches-p("forecache_cache_misses_total"))/per, "count", nreq)

	encHits, encMisses := p("forecache_tile_encode_cache_hits_total"), p("forecache_tile_encode_misses_total")
	ms.set("tile.enc_cache_hit_share", ratio(encHits, encHits+encMisses), "ratio", int(encHits+encMisses))
	ms.set("tile.enc_cache_evicted_per_req", p("forecache_tile_encoded_cache_evicted_total")/per, "count", nreq)

	pushed := p("forecache_push_tiles_total")
	pushDropped := p("forecache_push_dropped_total")
	ms.set("push.pushed_per_req", pushed/per, "count", nreq)
	ms.set("push.dropped_share", ratio(pushDropped, pushed+pushDropped), "ratio", int(pushed+pushDropped))
	ms.set("push.consumed_share", ratio(p("forecache_push_consumed_total"), pushed), "ratio", int(pushed))
	lead, n = histMean("forecache_push_lead_time_seconds")
	ms.set("push.lead_time_ms_mean", lead*1e3, "ms", n)

	ms.set("persist.saves", p("forecache_snapshot_saves_total"), "count", 1)
	return ms
}

// budgetRow is one line of the budget table.
type budgetRow struct {
	indent int
	name   string
	us     float64
	source string
}

// budget lays one traced run's blocking chain out against the probes.
// client.tile splits exactly into transport+decode and server.handle (both
// measured by spans); server.handle splits into the measured backend wait
// plus per-layer estimates — each a probe mean weighted by how often the
// traced run took that path — and whatever they do not explain is the
// unattributed residual, a row of its own.
func (tr *traced) budget(ms metricSet) []budgetRow {
	v := func(name string) float64 { return ms[name].Value }
	nreq := float64(len(tr.tally.samples))
	cfg := tr.w.Config
	hit := float64(tr.tally.hits) / nreq
	handle := v("server.handle_us_mean")
	gap := v("client.transport_decode_us")

	// A new session's first request is always a miss, a warm request mostly
	// a hit, so the difference can come out negative; then nothing is
	// charged to construction.
	session := v("shard.locate_ns")/1e3 + max(0, v("server.handler_new_session_us")-v("server.handler_warm_us"))*v("server.sessions_created")/nreq
	lookup := (hit*v("cache.lookup_hit_ns") + (1-hit)*(v("cache.lookup_miss_ns")+v("backend.dbms_fetch_ns")) + v("cache.insert_recent_ns")) / 1e3
	recommend := v("recommend.candidates_ns")/1e3 + v("recommend.ab_predict_us") + v("recommend.sb_predict_us")
	allocate := v("core.allocate_static_ns") / 1e3
	if cfg.Hotspot {
		recommend += v("recommend.hotspot_predict_us")
	}
	if cfg.AdaptiveAllocation {
		allocate = v("core.allocate_adaptive_ns") / 1e3
	}
	models := 2.0
	if cfg.Hotspot {
		models = 3
	}
	prefetch := v("backend.prefetch_fetches_per_req")*v("backend.dbms_fetch_ns")/1e3 + models*v("cache.fill_us")
	prefetchSource := "inline: fetches/req x backend.dbms_fetch + models x cache.fill"
	if cfg.AsyncPrefetch {
		prefetch, prefetchSource = v("prefetch.submit_us"), "prefetch.submit"
	}
	encode, encodeSource := v("tile.json_stream_encode_us"), "tile.json_stream_encode"
	if cfg.BinaryTiles {
		hs := v("tile.enc_cache_hit_share")
		encode = hs*v("tile.enc_cache_hit_ns")/1e3 + (1-hs)*(v("tile.enc_cache_miss_us")+v("tile.gzip_us"))
		encodeSource = "enc-cache hit share x hit + miss share x (miss + gzip)"
	}
	wait := v("backend.demand_wait_ms_per_req") * 1e3
	explained := wait + session + lookup + v("phase.predict_ns")/1e3 + recommend + allocate + prefetch + encode
	return []budgetRow{
		{0, "client.tile", gap + handle, "span mean"},
		{1, "client.transport_decode", gap, "client.tile span - server.handle span"},
		{1, "server.handle", handle, "span mean"},
		{2, "backend.demand_wait", wait, "benchmark clock"},
		{2, "session resolve (est)", session, "shard.locate + new-session cost x sessions created/req"},
		{2, "cache lookup (est)", lookup, "hit/miss-weighted cache.lookup + demand fetch + insert_recent"},
		{2, "phase (est)", v("phase.predict_ns") / 1e3, "phase.predict"},
		{2, "recommend (est)", recommend, "candidates + every model's predict"},
		{2, "allocate (est)", allocate, "core.allocate"},
		{2, "prefetch (est)", prefetch, prefetchSource},
		{2, "encode+serve (est)", encode, encodeSource},
		{2, "unattributed residual", handle - explained, "server.handle - rows above"},
	}
}

func printBudget(w io.Writer, name string, rows []budgetRow, overheadUS float64) {
	fmt.Fprintf(w, "\nbudget: %s (traced run, mean us per request)\n", name)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintf(tw, "  %*s%s\t%10.2f\t%s\n", 2*r.indent, "", r.name, r.us, r.source)
	}
	fmt.Fprintf(tw, "  obs.trace_overhead\t%10.2f\ttraced - untraced server.handle mean, net of backend waits\n", overheadUS)
	tw.Flush()
}
