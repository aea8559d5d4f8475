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
// its internally-consistent Stats snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tier := s.gather(true)

	pw := &promWriter{}
	pw.gauge("forecache_sessions", "Live sessions with engine state.", float64(tier.sessions))
	pw.counter("forecache_sessions_evicted_total", "Sessions evicted by the TTL or LRU cap.", float64(tier.evicted))
	pw.gauge("forecache_server_closed", "1 after Close, 0 while serving.", boolValue(s.closed.Load()))
	pw.gauge("forecache_shards", "Session-tier shards behind the hash router.", float64(len(s.shards)))
	shardSess := make([]sample, len(s.shards))
	shardEv := make([]sample, len(s.shards))
	for i := range s.shards {
		l := labels(map[string]string{"shard": strconv.Itoa(i)})
		shardSess[i] = sample{labels: l, value: float64(tier.shardSessions[i])}
		shardEv[i] = sample{labels: l, value: float64(tier.shardEvicted[i])}
	}
	pw.family("forecache_shard_sessions", "Live sessions per session-tier shard; sums to forecache_sessions within one scrape.", "gauge", shardSess...)
	pw.family("forecache_shard_sessions_evicted_total", "Sessions evicted per session-tier shard (TTL or LRU cap).", "counter", shardEv...)

	pw.counter("forecache_cache_hits_total", "Tile requests served from a middleware cache, summed over all sessions ever (live and retired).", float64(tier.cache.Hits))
	pw.counter("forecache_cache_misses_total", "Tile requests that fell through to the DBMS, summed over all sessions ever.", float64(tier.cache.Misses))
	pw.counter("forecache_cache_prefetched_total", "Tiles inserted into prediction regions, summed over all sessions ever.", float64(tier.cache.Prefetched))
	pw.counter("forecache_cache_evicted_total", "Tiles evicted from session caches, summed over all sessions ever.", float64(tier.cache.Evicted))
	pw.gauge("forecache_cache_hit_ratio", "Lifetime cache hit rate (prediction accuracy, paper 5.2.2).", tier.cache.HitRate())

	if s.cfg.Scheduler != nil {
		st := s.cfg.Scheduler.Stats()
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

		depthSamples := make([]sample, 0, len(st.QueueDepths))
		pressureSamples := make([]sample, 0, len(st.SessionPressures))
		ids := make([]string, 0, len(st.QueueDepths))
		for id := range st.QueueDepths {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			l := labels(map[string]string{"session": id})
			depthSamples = append(depthSamples, sample{labels: l, value: float64(st.QueueDepths[id])})
			pressureSamples = append(pressureSamples, sample{labels: l, value: st.SessionPressures[id]})
		}
		pw.family("forecache_prefetch_session_queue_depth", "Live queued entries per session.", "gauge", depthSamples...)
		pw.family("forecache_prefetch_session_pressure", "Per-session fair-share backpressure in [0,1]; FairShare engines shrink on it.", "gauge", pressureSamples...)

		// Per-shard series: the deployment totals above are the sums of
		// these within one scrape (both come from the same kind of per-shard
		// snapshots). A one-shard deployment renders one shard="0" series.
		per := s.cfg.Scheduler.ShardStats()
		pw.counter("forecache_prefetch_cross_shard_coalesced_total",
			"Worker fetches that joined another shard's in-flight DBMS fetch (deployment-wide single-flight).", float64(st.CrossShardCoalesced))
		queuedS := make([]sample, len(per))
		completedS := make([]sample, len(per))
		pendingS := make([]sample, len(per))
		pressureS := make([]sample, len(per))
		for i, shst := range per {
			l := labels(map[string]string{"shard": strconv.Itoa(i)})
			queuedS[i] = sample{labels: l, value: float64(shst.Queued)}
			completedS[i] = sample{labels: l, value: float64(shst.Completed)}
			pendingS[i] = sample{labels: l, value: float64(shst.Pending)}
			pressureS[i] = sample{labels: l, value: shst.Pressure}
		}
		pw.family("forecache_prefetch_shard_queued_total", "Prefetch entries accepted per scheduler shard.", "counter", queuedS...)
		pw.family("forecache_prefetch_shard_completed_total", "Entries fetched and delivered per scheduler shard.", "counter", completedS...)
		pw.family("forecache_prefetch_shard_pending", "Entries queued right now per scheduler shard.", "gauge", pendingS...)
		pw.family("forecache_prefetch_shard_pressure", "Queue saturation per scheduler shard in [0,1].", "gauge", pressureS...)

		if st.UtilityCurve != nil {
			curveSamples := make([]sample, len(st.UtilityCurve))
			for pos, f := range st.UtilityCurve {
				curveSamples[pos] = sample{
					labels: labels(map[string]string{"position": strconv.Itoa(pos)}),
					value:  f,
				}
			}
			pw.family("forecache_utility_position_factor",
				"Effective position-decay curve: learned consumption rate of each batch position relative to position 0 (static 0.85^p until warmed up).",
				"gauge", curveSamples...)
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
		drainIDs := make([]string, 0, len(st.DrainRates))
		for id := range st.DrainRates {
			drainIDs = append(drainIDs, id)
		}
		sort.Strings(drainIDs)
		drainSamples := make([]sample, len(drainIDs))
		for i, id := range drainIDs {
			drainSamples[i] = sample{
				labels: labels(map[string]string{"session": id}),
				value:  st.DrainRates[id],
			}
		}
		pw.family("forecache_push_drain_bytes_per_second",
			"Measured per-session stream drain rate (EWMA); the scheduler's bandwidth-aware admission term divides by it.",
			"gauge", drainSamples...)
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
		shares := s.cfg.Allocation.Shares()
		type phaseRow struct {
			name    string
			byModel map[string]float64
		}
		rows := make([]phaseRow, 0, len(shares))
		for ph, byModel := range shares {
			rows = append(rows, phaseRow{name: ph.String(), byModel: byModel})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
		var allocSamples []sample
		for _, row := range rows {
			models := make([]string, 0, len(row.byModel))
			for m := range row.byModel {
				models = append(models, m)
			}
			sort.Strings(models)
			for _, m := range models {
				allocSamples = append(allocSamples, sample{
					labels: labels(map[string]string{"phase": row.name, "model": m}),
					value:  row.byModel[m],
				})
			}
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
