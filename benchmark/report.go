package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// metric is one reported number: its value, its unit and how many samples
// stand behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metricSet map[string]metric

func (ms metricSet) set(name string, value float64, unit string, n int) {
	ms[name] = metric{Value: value, Unit: unit, N: n}
}

func (ms metricSet) merge(other metricSet) {
	for name, m := range other {
		ms[name] = m
	}
}

// decl declares one metric: BENCHMARK.json repeats exactly these (a test
// holds the two together). Bound is the share of the baseline's median by
// which an end-to-end metric may worsen — between two sets of runs of the
// same code, or across a change — before it counts as a regression.
type decl struct {
	Name, Unit, Better string
	Bound              float64
}

// The end-to-end metrics, reported for every workload with tracing off. One
// bound serves all four workloads, so each is set by the workload on which
// the metric is noisiest; the timings carry the widest bound allowed because
// the shared box they were sized on drifts (README, "Spread").
var endToEnd = []decl{
	{"tile_p50_ms", "ms", "lower", 0.25},
	{"tile_mean_ms", "ms", "lower", 0.25},
	{"tile_rps", "1/s", "higher", 0.25},
	{"hit_rate", "ratio", "higher", 0.06},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"wire_bytes_per_req", "bytes", "lower", 0.01},
	{"live_heap_mb", "MB", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// The per-layer metrics, <module>.<metric>, reported for every workload by
// the traced run: boundary spans, published counters and layer probes.
var perLayer = []decl{
	{Name: "client.tile_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tile_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.transport_decode_us", Unit: "us", Better: "lower"},
	{Name: "client.streamed_share", Unit: "ratio", Better: "higher"},
	{Name: "client.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "client.conns_opened_per_req", Unit: "count", Better: "lower"},
	{Name: "server.handle_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_warm_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_new_session_us", Unit: "us", Better: "lower"},
	{Name: "server.sessions_created", Unit: "count", Better: "lower"},
	{Name: "server.sessions_evicted", Unit: "count", Better: "lower"},
	{Name: "server.stats_scrape_us", Unit: "us", Better: "lower"},
	{Name: "server.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "shard.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "core.request_us", Unit: "us", Better: "lower"},
	{Name: "core.request_walk_us", Unit: "us", Better: "lower"},
	{Name: "core.request_hits", Unit: "count", Better: "higher"},
	{Name: "core.allocate_static_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allocate_adaptive_ns", Unit: "ns", Better: "lower"},
	{Name: "recommend.ab_predict_us", Unit: "us", Better: "lower"},
	{Name: "recommend.ab_predict_walk_us", Unit: "us", Better: "lower"},
	{Name: "recommend.sb_predict_us", Unit: "us", Better: "lower"},
	{Name: "recommend.sb_predict_walk_us", Unit: "us", Better: "lower"},
	{Name: "recommend.hotspot_predict_us", Unit: "us", Better: "lower"},
	{Name: "recommend.hotspot_predict_walk_us", Unit: "us", Better: "lower"},
	{Name: "recommend.candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "phase.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.fill_us", Unit: "us", Better: "lower"},
	{Name: "cache.insert_recent_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.prefetched_per_req", Unit: "count", Better: "lower"},
	{Name: "cache.evicted_per_req", Unit: "count", Better: "lower"},
	{Name: "cache.consumed_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.lead_time_ms_mean", Unit: "ms", Better: "higher"},
	{Name: "prefetch.submit_us", Unit: "us", Better: "lower"},
	{Name: "prefetch.deliver_wait_us", Unit: "us", Better: "lower"},
	{Name: "prefetch.queued_per_req", Unit: "count", Better: "lower"},
	{Name: "prefetch.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "prefetch.cross_shard_coalesced", Unit: "count", Better: "higher"},
	{Name: "prefetch.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "prefetch.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "prefetch.cancelled_share", Unit: "ratio", Better: "lower"},
	{Name: "prefetch.peak_pending", Unit: "count", Better: "lower"},
	{Name: "prefetch.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "prefetch.slow_queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "prefetch.slow_shed_share", Unit: "ratio", Better: "lower"},
	{Name: "prefetch.slow_completed_share", Unit: "ratio", Better: "higher"},
	{Name: "backend.demand_fetches_per_req", Unit: "count", Better: "lower"},
	{Name: "backend.pool_hits_per_req", Unit: "count", Better: "higher"},
	{Name: "backend.demand_wait_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "backend.prefetch_fetches_per_req", Unit: "count", Better: "lower"},
	{Name: "backend.dbms_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.pool_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "backend.pool_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "tile.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "tile.json_stream_encode_us", Unit: "us", Better: "lower"},
	{Name: "tile.binary_encode_us", Unit: "us", Better: "lower"},
	{Name: "tile.gzip_us", Unit: "us", Better: "lower"},
	{Name: "tile.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "tile.binary_decode_us", Unit: "us", Better: "lower"},
	{Name: "tile.json_bytes", Unit: "bytes", Better: "lower"},
	{Name: "tile.binary_gz_bytes", Unit: "bytes", Better: "lower"},
	{Name: "tile.enc_cache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "tile.enc_cache_miss_us", Unit: "us", Better: "lower"},
	{Name: "tile.enc_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "tile.enc_cache_evicted_per_req", Unit: "count", Better: "lower"},
	{Name: "push.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "push.frame_encode_us", Unit: "us", Better: "lower"},
	{Name: "push.frame_decode_us", Unit: "us", Better: "lower"},
	{Name: "push.pushed_per_req", Unit: "count", Better: "lower"},
	{Name: "push.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "push.consumed_share", Unit: "ratio", Better: "higher"},
	{Name: "push.stream_bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "push.lead_time_ms_mean", Unit: "ms", Better: "higher"},
	{Name: "persist.save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.saves", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_us", Unit: "us", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "machine.calibration_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.build_world_s", Unit: "s", Better: "lower"},
	{Name: "setup.study_s", Unit: "s", Better: "lower"},
	{Name: "setup.train_s", Unit: "s", Better: "lower"},
	{Name: "setup.new_server_ms", Unit: "ms", Better: "lower"},
}

// endToEndMetrics turns a measured window into the end-to-end metrics.
func (win *window) endToEndMetrics(setup time.Duration, setups int) metricSet {
	ms := metricSet{}
	lat := latenciesMS(win.tally.samples)
	n := len(lat)
	done := float64(n)
	secs := win.elapsed.Seconds()
	ms.set("tile_p50_ms", quantile(lat, 0.50), "ms", n)
	ms.set("tile_mean_ms", mean(lat), "ms", n)
	ms.set("tile_rps", done/secs, "1/s", n)
	ms.set("hit_rate", float64(win.tally.hits)/float64(win.tally.attempted), "ratio", win.tally.attempted)
	ms.set("cpu_ms_per_req", float64(win.after.cpu-win.before.cpu)/float64(time.Millisecond)/done, "ms", n)
	wire := win.after.tileBytes - win.before.tileBytes + win.after.streamBytes - win.before.streamBytes
	ms.set("wire_bytes_per_req", float64(wire)/done, "bytes", n)
	ms.set("live_heap_mb", win.liveHeapMB, "MB", 1)
	ms.set("setup_s", setup.Seconds(), "s", setups)
	return ms
}

// layerMetrics turns a measured window into the per-layer metrics it alone
// can give: the client tail, failure and streamed shares, and the runtime's
// own cost over the window.
func (win *window) layerMetrics() metricSet {
	ms := metricSet{}
	lat := latenciesMS(win.tally.samples)
	n := len(lat)
	done := float64(n)
	attempted := float64(win.tally.attempted)
	ms.set("client.tile_p95_ms", quantile(lat, 0.95), "ms", n)
	ms.set("client.tile_p99_ms", quantile(lat, 0.99), "ms", n)
	ms.set("client.streamed_share", float64(win.tally.streamed)/attempted, "ratio", win.tally.attempted)
	ms.set("client.failed_share", float64(win.tally.failed)/attempted, "ratio", win.tally.attempted)
	ms.set("client.conns_opened_per_req", float64(win.connsOpened)/attempted, "count", win.tally.attempted)
	ms.set("runtime.allocs_per_req", float64(win.after.mallocs-win.before.mallocs)/done, "count", n)
	ms.set("runtime.gc_pause_ms_per_s", float64(win.after.pauseNS-win.before.pauseNS)/1e6/win.elapsed.Seconds(), "ms/s", 1)
	ms.set("runtime.heap_inuse_peak_mb", win.heapPeakMB, "MB", 1)
	ms.set("runtime.goroutines_end", float64(win.after.goroutines), "count", 1)
	ms.set("machine.calibration_ms", float64(win.calibration)/float64(time.Millisecond), "ms", 2)
	return ms
}

// untracedHandleUS is the mean time inside the /tile handler over the
// window, net of real backend waits: the baseline obs.trace_overhead_us is
// taken against.
func (win *window) untracedHandleUS() float64 {
	handled := win.after.handled - win.before.handled
	if handled == 0 {
		return 0
	}
	busy := win.after.handleNS - win.before.handleNS - (win.after.slept - win.before.slept)
	return float64(busy) / float64(handled) / 1e3
}

func (st setupTimes) metrics() metricSet {
	ms := metricSet{}
	ms.set("setup.build_world_s", st.BuildWorld.Seconds(), "s", 1)
	ms.set("setup.study_s", st.Study.Seconds(), "s", 1)
	ms.set("setup.train_s", st.Train.Seconds(), "s", 1)
	ms.set("setup.new_server_ms", float64(st.NewServer)/float64(time.Millisecond), "ms", 1)
	return ms
}

// missing lists the declared metrics that ms lacks or holds as NaN or Inf.
func missing(ms metricSet, decls []decl) []string {
	var out []string
	for _, d := range decls {
		m, ok := ms[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out = append(out, d.Name)
		}
	}
	return out
}

// printMetrics writes every declared metric that ms holds, by name, with
// its unit and sample count.
func printMetrics(w io.Writer, title string, ms metricSet, decls []decl) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tsamples\tbetter")
	for _, d := range decls {
		if m, ok := ms[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\t%s\n", d.Name, m.Value, m.Unit, m.N, d.Better)
		}
	}
	tw.Flush()
}

// result is one workload's outcome in one run; -out appends one JSON line
// per result, so a file filled by several runs is a set of runs.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func appendResults(path string, results []result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// Verdicts of a comparison row.
const (
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// spread is the distance between the first and third quartile as a share
// of the median (0 with fewer than four values: no spread can be read).
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(med)
}

// judge compares one metric's values in two sets of runs. worsening is the
// share of a's median by which b's median is worse (negative: better).
func judge(d decl, a, b []float64) (worsening float64, verdict string) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worsening = -worsening
	}
	worse := func(x, y float64) bool { // y worse than x
		if d.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if max(spread(a), spread(b)) > d.Bound {
		// The runs scatter more than the bound: only a clean separation
		// of the two sets says anything.
		allWorse, allBetter := true, true
		for _, x := range a {
			for _, y := range b {
				allWorse = allWorse && worse(x, y)
				allBetter = allBetter && worse(y, x)
			}
		}
		switch {
		case allWorse && worsening > d.Bound:
			return worsening, verdictWorse
		case allBetter:
			return worsening, verdictBetter
		}
		return worsening, verdictUnresolved
	}
	switch {
	case worsening > d.Bound:
		return worsening, verdictWorse
	case worsening < -d.Bound:
		return worsening, verdictBetter
	}
	return worsening, verdictWithin
}

// compare prints every end-to-end metric of every workload in its own row —
// both medians, the delta and the bound — and reports whether any is worse.
func compare(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	ra, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []result, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\truns\tworsening\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := values(ra, wl.Name, d.Name), values(rb, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worsening, verdict := judge(d, a, b)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%d/%d\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, median(a), median(b), len(a), len(b), 100*worsening, 100*d.Bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
