package server

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"forecache/internal/obs"
)

// This file implements the dependency-free Prometheus text-format
// /metrics endpoint (enabled with Config.Metrics): the operability surface
// Kyrix argues production-scale interactive viz needs. It exposes the
// whole closed scheduling loop — queue/shed/coalesce counters, queue
// saturation and per-session depths, aggregate cache hit rates, and the
// learned position-utility curve — in the exposition format every
// Prometheus scraper understands (version 0.0.4), without importing a
// client library.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition payload. Metric families are
// written atomically: HELP, TYPE, then every sample of the family.
type promWriter struct {
	b []byte
}

// labelEscaper escapes a label value per the exposition format: backslash,
// double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// sample is one labeled measurement within a family. labels holds ordered
// key/value pairs, rendered in the order given: keys in sorted order.
type sample struct {
	labels []string
	value  float64
}

// keyedSamples renders one sample per map entry in sorted key order,
// labelled label="<key>" followed by the fixed pairs (whose keys sort after
// label), so consecutive scrapes list the same series identically.
func keyedSamples[V int | float64](label string, m map[string]V, fixed ...string) []sample {
	out := make([]sample, 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, sample{labels: append([]string{label, k}, fixed...), value: float64(m[k])})
	}
	return out
}

// indexedSamples renders n samples labelled label="0".."n-1".
func indexedSamples(label string, n int, value func(i int) float64) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{labels: []string{label, strconv.Itoa(i)}, value: value(i)}
	}
	return out
}

// series starts one sample line: the name, then {k="v",...} for the label
// pairs kv, then the space before the value.
func (w *promWriter) series(name string, kv []string) {
	w.b = append(w.b, name...)
	sep := byte('{')
	for i := 0; i < len(kv); i += 2 {
		w.b = append(append(w.b, sep), kv[i]...)
		w.b = append(append(w.b, `="`...), labelEscaper.Replace(kv[i+1])...)
		w.b, sep = append(w.b, '"'), ','
	}
	if len(kv) > 0 {
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ' ')
}

// float and count write one sample line. Prometheus accepts Go's shortest
// float representation (and +Inf/-Inf/NaN spellings).
func (w *promWriter) float(name string, kv []string, v float64) {
	w.series(name, kv)
	w.b = append(strconv.AppendFloat(w.b, v, 'g', -1, 64), '\n')
}

func (w *promWriter) count(name string, kv []string, v uint64) {
	w.series(name, kv)
	w.b = append(strconv.AppendUint(w.b, v, 10), '\n')
}

// family writes one metric family: help/type header plus samples.
func (w *promWriter) family(name, help, typ string, samples ...sample) {
	w.b = fmt.Appendf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		w.float(name, s.labels, s.value)
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
	labels []string // key/value pairs without "le", whose key sorts first; may be nil
	snap   obs.HistogramSnapshot
}

// histogramFamily writes one histogram family in exposition form: per
// series, a cumulative _bucket sample per bound plus +Inf, then _sum and
// _count. Each series' snapshot is internally consistent (+Inf == count),
// so the payload always passes the strict validator.
func (w *promWriter) histogramFamily(name, help string, series ...histSeries) {
	w.family(name, help, "histogram")
	bucket := name + "_bucket"
	for _, s := range series {
		kv := append([]string{"le", ""}, s.labels...)
		for i, bound := range s.snap.Bounds {
			kv[1] = strconv.FormatFloat(bound, 'g', -1, 64)
			w.count(bucket, kv, s.snap.Cumulative[i])
		}
		kv[1] = "+Inf"
		w.count(bucket, kv, s.snap.Count)
		w.float(name+"_sum", s.labels, s.snap.Sum)
		w.count(name+"_count", s.labels, s.snap.Count)
	}
}

// handleMetrics renders the exposition payload: the session table from one
// gather (departed sessions' cache totals keep the cache counters
// monotone), and the scheduler from one Snapshot, whose per-shard series
// sum to its totals within one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tier := s.gather(true)

	pw := &promWriter{}
	pw.gauge("forecache_sessions", "Live sessions with engine state.", float64(tier.sessions))
	pw.counter("forecache_sessions_evicted_total", "Sessions evicted by the TTL or LRU cap.", float64(tier.evicted))
	pw.gauge("forecache_server_closed", "1 after Close, 0 while serving.", boolValue(tier.closed))

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
		pw.gauge("forecache_prefetch_pressure", "Global queue saturation in [0,1]: pending entries over the global budget.", st.Pressure)
		pw.gauge("forecache_prefetch_queue_latency_seconds", "Mean time entries spent queued before their fetch was issued.", st.AvgQueueLatency.Seconds())

		pw.family("forecache_prefetch_session_queue_depth", "Live queued entries per session.", "gauge",
			keyedSamples("session", st.QueueDepths)...)

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
		pw.counter("forecache_push_dropped_total", "Push frames lost to a full stream buffer.", float64(st.Dropped))
		pw.counter("forecache_push_heartbeats_total", "Heartbeat frames written on idle push streams.", float64(st.Heartbeats))
		pw.counter("forecache_push_consumed_total", "Pushed tiles whose session later requested them.", float64(st.Consumed))
		pw.counter("forecache_push_bytes_total", "Frame bytes handed to push stream connections (SSE and binary framing, heartbeats included).", float64(st.Bytes))
		pw.family("forecache_push_drain_bytes_per_second",
			"Measured per-session stream drain rate (EWMA); the scheduler's bandwidth-aware admission term divides by it.",
			"gauge", keyedSamples("session", st.DrainRates)...)
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
			histSeries{labels: []string{"outcome", obs.OutcomeHit}, snap: s.cfg.Obs.RequestHit.Snapshot()},
			histSeries{labels: []string{"outcome", obs.OutcomeMiss}, snap: s.cfg.Obs.RequestMiss.Snapshot()},
			histSeries{labels: []string{"outcome", obs.OutcomeShed}, snap: s.cfg.Obs.RequestShed.Snapshot()},
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
		var allocSamples []sample
		for _, name := range slices.Sorted(maps.Keys(byPhase)) {
			allocSamples = append(allocSamples, keyedSamples("model", byPhase[name], "phase", name)...)
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
	_, _ = w.Write(pw.b)
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
