package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"forecache/internal/obs"
)

// This file implements the dependency-free Prometheus text-format
// /metrics endpoint (enabled with Config.Metrics): the operability surface
// Kyrix argues production-scale interactive viz needs. It exposes the
// whole closed scheduling loop — queue/shed/coalesce counters, global and
// per-session backpressure, aggregate cache hit rates, and the learned
// position-utility curve — in the exposition format every Prometheus
// scraper understands (version 0.0.4), without importing a client
// library.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition payload. Metric families are
// written atomically: HELP, TYPE, then every sample of the family.
type promWriter struct {
	b strings.Builder
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue renders a sample value; Prometheus accepts Go's shortest
// float representation (and +Inf/-Inf/NaN spellings).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sample is one labeled measurement within a family.
type sample struct {
	labels string // pre-rendered {k="v",...}, or ""
	value  float64
}

// labels renders a label set in deterministic (sorted) order.
func labels(kv map[string]string) string {
	if len(kv) == 0 {
		return ""
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf(`%s="%s"`, k, escapeLabel(kv[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// keyedSamples renders one sample per map entry in sorted key order,
// labelled label="<key>" on top of the fixed labels (may be nil), so
// consecutive scrapes list the same series identically.
func keyedSamples[V int | float64](label string, m map[string]V, fixed map[string]string) []sample {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sample, len(keys))
	for i, k := range keys {
		kv := map[string]string{label: k}
		for fk, fv := range fixed {
			kv[fk] = fv
		}
		out[i] = sample{labels: labels(kv), value: float64(m[k])}
	}
	return out
}

// indexedSamples renders n samples labelled label="0".."n-1".
func indexedSamples(label string, n int, value func(i int) float64) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{labels: labels(map[string]string{label: strconv.Itoa(i)}), value: value(i)}
	}
	return out
}

// family writes one metric family: help/type header plus samples.
func (w *promWriter) family(name, help, typ string, samples ...sample) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		fmt.Fprintf(&w.b, "%s%s %s\n", name, s.labels, formatValue(s.value))
	}
}

func (w *promWriter) gauge(name, help string, v float64) {
	w.family(name, help, "gauge", sample{value: v})
}
func (w *promWriter) counter(name, help string, v float64) {
	w.family(name, help, "counter", sample{value: v})
}

// histSeries is one labeled histogram within a family (e.g. one outcome
// of the request-latency histogram).
type histSeries struct {
	labels map[string]string // without "le"; may be nil
	snap   obs.HistogramSnapshot
}

// histogramFamily writes one histogram family in exposition form: per
// series, a cumulative _bucket sample per bound plus +Inf, then _sum and
// _count. Each series' snapshot is internally consistent (+Inf == count),
// so the payload always passes the strict validator.
func (w *promWriter) histogramFamily(name, help string, series ...histSeries) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.b, "# TYPE %s histogram\n", name)
	for _, s := range series {
		for i, bound := range s.snap.Bounds {
			w.histBucket(name, s.labels, formatValue(bound), s.snap.Cumulative[i])
		}
		w.histBucket(name, s.labels, "+Inf", s.snap.Count)
		fmt.Fprintf(&w.b, "%s_sum%s %s\n", name, labels(s.labels), formatValue(s.snap.Sum))
		fmt.Fprintf(&w.b, "%s_count%s %d\n", name, labels(s.labels), s.snap.Count)
	}
}

// histBucket writes one _bucket sample with the le label merged in.
func (w *promWriter) histBucket(name string, base map[string]string, le string, count uint64) {
	kv := make(map[string]string, len(base)+1)
	for k, v := range base {
		kv[k] = v
	}
	kv["le"] = le
	fmt.Fprintf(&w.b, "%s_bucket%s %d\n", name, labels(kv), count)
}

// handleMetrics renders the exposition payload: the session tier from one
// gather (so forecache_sessions always equals the sum of the
// forecache_shard_sessions series in one scrape, and departed sessions'
// cache totals keep the cache counters monotone), and the scheduler from
// one Snapshot, whose per-shard series sum to its totals the same way.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tier := s.gather(true)

	pw := &promWriter{}
	pw.gauge("forecache_sessions", "Live sessions with engine state.", float64(tier.sessions))
	pw.counter("forecache_sessions_evicted_total", "Sessions evicted by the TTL or LRU cap.", float64(tier.evicted))
	pw.gauge("forecache_server_closed", "1 after Close, 0 while serving.", boolValue(s.closed.Load()))
	pw.gauge("forecache_shards", "Session-tier shards behind the hash router.", float64(len(s.shards)))
	pw.family("forecache_shard_sessions", "Live sessions per session-tier shard; sums to forecache_sessions within one scrape.", "gauge",
		indexedSamples("shard", len(s.shards), func(i int) float64 { return float64(tier.shardSessions[i]) })...)
	pw.family("forecache_shard_sessions_evicted_total", "Sessions evicted per session-tier shard (TTL or LRU cap).", "counter",
		indexedSamples("shard", len(s.shards), func(i int) float64 { return float64(tier.shardEvicted[i]) })...)

	pw.counter("forecache_cache_hits_total", "Tile requests served from a middleware cache, summed over all sessions ever (live and retired).", float64(tier.cache.Hits))
	pw.counter("forecache_cache_misses_total", "Tile requests that fell through to the DBMS, summed over all sessions ever.", float64(tier.cache.Misses))
	pw.counter("forecache_cache_prefetched_total", "Tiles inserted into prediction regions, summed over all sessions ever.", float64(tier.cache.Prefetched))
	pw.counter("forecache_cache_evicted_total", "Tiles evicted from session caches, summed over all sessions ever.", float64(tier.cache.Evicted))
	pw.gauge("forecache_cache_hit_ratio", "Lifetime cache hit rate (prediction accuracy, paper 5.2.2).", tier.cache.HitRate())

	if s.cfg.Scheduler != nil {
		st, per := s.cfg.Scheduler.Snapshot()
		pw.counter("forecache_prefetch_queued_total", "Prefetch entries accepted into the scheduler queue.", float64(st.Queued))
		pw.counter("forecache_prefetch_dropped_total", "Prefetch entries rejected at submission.", float64(st.Dropped))
		pw.counter("forecache_prefetch_shed_total", "Queued entries evicted by global admission control.", float64(st.Shed))
		pw.counter("forecache_prefetch_cancelled_total", "Queued entries superseded by a newer batch or session eviction.", float64(st.Cancelled))
		pw.counter("forecache_prefetch_coalesced_total", "Entries that shared another entry's DBMS fetch (single-flight).", float64(st.Coalesced))
		pw.counter("forecache_prefetch_completed_total", "Entries whose tile was fetched and delivered.", float64(st.Completed))
		pw.counter("forecache_prefetch_errors_total", "Entries whose DBMS fetch failed.", float64(st.Errors))
		pw.gauge("forecache_prefetch_pending", "Entries queued right now across all sessions.", float64(st.Pending))
		pw.gauge("forecache_prefetch_peak_pending", "High-water mark of the pending queue.", float64(st.PeakPending))
		pw.gauge("forecache_prefetch_inflight", "DBMS fetches running right now.", float64(st.Inflight))
		pw.gauge("forecache_prefetch_pressure", "Global queue saturation in [0,1]; AdaptiveK engines shrink on it.", st.Pressure)
		pw.gauge("forecache_prefetch_queue_latency_seconds", "Mean time entries spent queued before their fetch was issued.", st.AvgQueueLatency.Seconds())

		pw.family("forecache_prefetch_session_queue_depth", "Live queued entries per session.", "gauge",
			keyedSamples("session", st.QueueDepths, nil)...)
		pw.family("forecache_prefetch_session_pressure", "Per-session fair-share backpressure in [0,1]; FairShare engines shrink on it.", "gauge",
			keyedSamples("session", st.SessionPressures, nil)...)

		// Per-shard series. A one-shard deployment renders one shard="0"
		// series.
		pw.counter("forecache_prefetch_cross_shard_coalesced_total",
			"Worker fetches that joined another shard's in-flight DBMS fetch (deployment-wide single-flight).", float64(st.CrossShardCoalesced))
		pw.family("forecache_prefetch_shard_queued_total", "Prefetch entries accepted per scheduler shard.", "counter",
			indexedSamples("shard", len(per), func(i int) float64 { return float64(per[i].Queued) })...)
		pw.family("forecache_prefetch_shard_completed_total", "Entries fetched and delivered per scheduler shard.", "counter",
			indexedSamples("shard", len(per), func(i int) float64 { return float64(per[i].Completed) })...)
		pw.family("forecache_prefetch_shard_pending", "Entries queued right now per scheduler shard.", "gauge",
			indexedSamples("shard", len(per), func(i int) float64 { return float64(per[i].Pending) })...)
		pw.family("forecache_prefetch_shard_pressure", "Queue saturation per scheduler shard in [0,1].", "gauge",
			indexedSamples("shard", len(per), func(i int) float64 { return per[i].Pressure })...)

		if st.UtilityCurve != nil {
			pw.family("forecache_utility_position_factor",
				"Effective position-decay curve: learned consumption rate of each batch position relative to position 0 (static 0.85^p until warmed up).",
				"gauge", indexedSamples("position", len(st.UtilityCurve), func(pos int) float64 { return st.UtilityCurve[pos] })...)
			pw.counter("forecache_utility_observations_total", "Cache outcomes the utility curve was fit from.", float64(st.UtilityObservations))
		}
	}

	if s.cfg.Push != nil {
		st := s.cfg.Push.Stats()
		pw.gauge("forecache_push_streams", "Push streams attached right now.", float64(st.Open))
		pw.counter("forecache_push_streams_opened_total", "Push stream attachments ever (reconnects included).", float64(st.Opened))
		pw.counter("forecache_push_tiles_total", "Tile frames enqueued onto push streams (backfill included).", float64(st.Pushed))
		pw.counter("forecache_push_backfill_total", "Tile frames replayed from the server-side cache on stream re-attach.", float64(st.Backfilled))
		pw.counter("forecache_push_dropped_total", "Push frames lost to a full stream buffer or a detached session.", float64(st.Dropped))
		pw.counter("forecache_push_heartbeats_total", "Heartbeat frames written on idle push streams.", float64(st.Heartbeats))
		pw.counter("forecache_push_consumed_total", "Pushed tiles whose session later requested them.", float64(st.Consumed))
		pw.counter("forecache_push_bytes_total", "Frame bytes handed to push stream connections (SSE and binary framing, heartbeats included).", float64(st.Bytes))
		pw.family("forecache_push_drain_bytes_per_second",
			"Measured per-session stream drain rate (EWMA); the scheduler's bandwidth-aware admission term divides by it.",
			"gauge", keyedSamples("session", st.DrainRates, nil)...)
	}

	if s.cfg.Encoded != nil {
		st := s.cfg.Encoded.Stats()
		pw.counter("forecache_tile_encode_cache_hits_total", "Tile payload requests served from the encoded-payload cache (or coalesced onto an in-flight encode).", float64(st.Hits))
		pw.counter("forecache_tile_encode_misses_total", "Tile payload encodings actually performed (encoded-cache misses).", float64(st.Misses))
		pw.counter("forecache_tile_encoded_cache_evicted_total", "Encoded payloads dropped by the cache's byte-budget LRU.", float64(st.Evicted))
		pw.gauge("forecache_tile_encoded_cache_entries", "Encoded payloads resident in the cache.", float64(st.Entries))
		pw.gauge("forecache_tile_encoded_cache_bytes", "Bytes of encoded payloads resident in the cache (budget accounting, bookkeeping overhead included).", float64(st.Cost))
		if s.cfg.Obs != nil {
			pw.histogramFamily("forecache_tile_encode_duration_seconds",
				"Wall time of tile payload encodings (JSON or binary); with the encoded cache on, only misses encode.",
				histSeries{snap: s.cfg.Obs.TileEncode.Snapshot()})
			pw.histogramFamily("forecache_tile_response_bytes",
				"Size of /tile response payloads as written: post content negotiation, post compression.",
				histSeries{snap: s.cfg.Obs.TileBytes.Snapshot()})
		}
	}

	if s.cfg.Obs != nil {
		if s.cfg.Push != nil {
			pw.histogramFamily("forecache_push_lead_time_seconds",
				"Push-to-consume lead time: tile frame enqueued onto a session's stream to that tile's request arriving.",
				histSeries{snap: s.cfg.Obs.PushLead.Snapshot()})
		}
		pw.histogramFamily("forecache_request_duration_seconds",
			"End-to-end /tile request latency by outcome: hit (served from a middleware cache), miss (synchronous DBMS fetch), shed (refused before a tile was served).",
			histSeries{labels: map[string]string{"outcome": obs.OutcomeHit}, snap: s.cfg.Obs.RequestHit.Snapshot()},
			histSeries{labels: map[string]string{"outcome": obs.OutcomeMiss}, snap: s.cfg.Obs.RequestMiss.Snapshot()},
			histSeries{labels: map[string]string{"outcome": obs.OutcomeShed}, snap: s.cfg.Obs.RequestShed.Snapshot()},
		)
		pw.histogramFamily("forecache_prefetch_queue_wait_seconds",
			"Time prefetch entries sat queued in the scheduler before their DBMS fetch was issued (or joined another's).",
			histSeries{snap: s.cfg.Obs.QueueWait.Snapshot()})
		pw.histogramFamily("forecache_backend_fetch_duration_seconds",
			"Wall time of DBMS tile fetches, on the response path (sync misses) and off it (prefetches).",
			histSeries{snap: s.cfg.Obs.BackendFetch.Snapshot()})
		pw.histogramFamily("forecache_prefetch_lead_time_seconds",
			"Prefetch lead time: cache insert of a prefetched tile to its first consumption by a request.",
			histSeries{snap: s.cfg.Obs.LeadTime.Snapshot()})
	}

	if s.cfg.Allocation != nil {
		// The Shares snapshot is taken under one policy lock hold, so within
		// one scrape every phase's shares sum to 1 even while reallocations
		// race the scrape. Samples are emitted in sorted (phase, model)
		// order so consecutive scrapes list the same series identically.
		byPhase := map[string]map[string]float64{}
		for ph, byModel := range s.cfg.Allocation.Shares() {
			byPhase[ph.String()] = byModel
		}
		phases := make([]string, 0, len(byPhase))
		for name := range byPhase {
			phases = append(phases, name)
		}
		sort.Strings(phases)
		var allocSamples []sample
		for _, name := range phases {
			allocSamples = append(allocSamples, keyedSamples("model", byPhase[name], map[string]string{"phase": name})...)
		}
		pw.family("forecache_allocation_share",
			"Current prefetch-budget share per (phase, model) under the adaptive allocation policy (the static table's split until the phase warms up); each phase's shares sum to 1.",
			"gauge", allocSamples...)
	}

	if s.cfg.Persist != nil {
		st := s.cfg.Persist.Status()
		pw.gauge("forecache_snapshot_age_seconds",
			"Age of the last successful learned-state snapshot; -1 before the first save.", st.AgeSeconds)
		pw.gauge("forecache_snapshot_last_result",
			"1 when the most recent snapshot save succeeded, 0 when it failed or none ran yet.",
			boolValue(st.LastResult == "ok"))
		pw.counter("forecache_snapshot_saves_total", "Successful learned-state snapshot writes.", float64(st.Saves))
		pw.counter("forecache_snapshot_failures_total", "Failed learned-state snapshot writes.", float64(st.Failures))
		pw.counter("forecache_snapshot_bytes_written_total", "Snapshot bytes written over the server's lifetime.", float64(st.BytesTotal))
		pw.gauge("forecache_snapshot_restored_families",
			"State families restored from the snapshot at startup (0 = cold start).", float64(st.Restored))
	}

	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, pw.b.String())
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
