package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"forecache/internal/client"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Load model: a closed loop of two workers. A session may have only one
// request outstanding (the engine rejects a coordinate that is not one move
// from the last), so the caller always waits for its reply. Each worker
// owns half of the workload's slots and steps them round-robin, one
// request per slot per turn with no think time of its own: a slot's turn
// in the rotation is that session's think time, which is what gives the
// asynchronous prefetcher time to land.

func requestID(session string, n int) string { return fmt.Sprintf("%s#%d", session, n) }

// tally is what one worker saw while the generator was measuring.
type tally struct {
	samples   []time.Duration // latency of every verified tile request
	attempted int
	failed    int
	hits      int
	streamed  int
	scrapes   []time.Duration // GET /stats round trips
	errs      []error         // the first few failures, for the report
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 3 {
		t.errs = append(t.errs, err)
	}
}

// generator drives one deployment with the workload's slots.
type generator struct {
	d       *deployment
	digests map[tile.Coord]uint64
	slots   [workerCount][]*slot
	// budget > 0 ends each worker after that many tile requests (the traced
	// run); otherwise workers run until stop.
	budget    int
	measuring atomic.Bool
	stop      atomic.Bool
	tallies   [workerCount]tally
	wg        sync.WaitGroup
}

func newGenerator(d *deployment, sched [][]trace.Request, digests map[tile.Coord]uint64) *generator {
	return &generator{d: d, digests: digests, slots: newSlots(d.w, sched)}
}

func (g *generator) run() {
	for wi := range g.slots {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.worker(wi)
		}()
	}
}

func (g *generator) wait() { g.wg.Wait() }

func (g *generator) worker(wi int) {
	w := g.d.w
	slots := g.slots[wi]
	res := &g.tallies[wi]
	clients := make([]*client.Client, len(slots))
	seq := make([]int, len(slots))
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Detach()
			}
		}
	}()
	for i := 0; !g.stop.Load() && (g.budget == 0 || i < g.budget); i++ {
		si := i % len(slots)
		s := slots[si]
		req, fresh := s.advance()
		if fresh {
			if clients[si] != nil {
				clients[si].Detach()
			}
			cl := client.New(g.d.base, s.sessionID())
			cl.NegotiateBinary(w.Binary)
			if w.Attach {
				if err := cl.Attach(); err != nil {
					res.fail(fmt.Errorf("attach %s: %w", s.sessionID(), err))
				}
			}
			clients[si], seq[si] = cl, 0
		}
		seq[si]++
		measuring := g.measuring.Load()
		start := time.Now()
		t, info, err := clients[si].Tile(req.Coord)
		end := time.Now()
		// A response that is not 200 (an error from the client), is for
		// another coordinate, or does not digest to the pyramid's own tile
		// is failed, and contributes to no latency figure.
		switch {
		case err == nil && t.Coord != req.Coord:
			err = fmt.Errorf("asked for %v, got %v", req.Coord, t.Coord)
		case err == nil && digestTile(t) != g.digests[req.Coord]:
			err = fmt.Errorf("tile %v does not match the pyramid", req.Coord)
		}
		g.d.log.add("client.tile", requestID(s.sessionID(), seq[si]), "", start, end)
		if measuring {
			res.attempted++
			if err != nil {
				res.fail(err)
			} else {
				res.samples = append(res.samples, end.Sub(start))
				if info.Hit {
					res.hits++
				}
				if info.Streamed {
					res.streamed++
				}
			}
		}
		if w.StatsEvery > 0 && (i+1)%w.StatsEvery == 0 {
			start := time.Now()
			_, err := clients[si].Stats()
			if measuring {
				res.scrapes = append(res.scrapes, time.Since(start))
				if err != nil {
					res.fail(fmt.Errorf("GET /stats: %w", err))
				}
			}
		}
	}
}

// total merges the workers' tallies.
func (g *generator) total() tally {
	var out tally
	for i := range g.tallies {
		t := &g.tallies[i]
		out.samples = append(out.samples, t.samples...)
		out.attempted += t.attempted
		out.failed += t.failed
		out.hits += t.hits
		out.streamed += t.streamed
		out.scrapes = append(out.scrapes, t.scrapes...)
		out.errs = append(out.errs, t.errs...)
	}
	return out
}

// processCounters is a point-in-time reading of everything the benchmark
// accumulates outside the workers.
type processCounters struct {
	at                           time.Time
	cpu                          time.Duration
	tileBytes, streamBytes       int64
	handleNS, handled            int64
	clockMisses, clockHits       int64
	slept                        int64
	mallocs, pauseNS, goroutines uint64
}

func (d *deployment) counters() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processCounters{
		at:          time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		tileBytes:   d.meter.tileBytes.Load(),
		streamBytes: d.meter.streamBytes.Load(),
		handleNS:    d.meter.handleNS.Load(),
		handled:     d.meter.handled.Load(),
		clockMisses: d.clock.misses.Load(),
		clockHits:   d.clock.hits.Load(),
		slept:       d.clock.slept.Load(),
		mallocs:     ms.Mallocs,
		pauseNS:     ms.PauseTotalNs,
		goroutines:  uint64(runtime.NumGoroutine()),
	}
}

// heapWatcher samples the heap in use every 50 ms (runtime/metrics, no
// stop-the-world) and keeps the peak.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	h := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64()+s[1].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapWatcher) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// calibrate times a fixed chase through a 32 MiB table: a million
// dependent loads that miss the caches, on one core. It is not a metric of
// the program: it says how fast the box's memory system was when the
// window ran, so that two runs an hour apart on a shared host can be told
// from two versions of the code. (While the benchmark was being sized this
// box slowed by a factor of 1.6 for an hour; an arithmetic loop ran at full
// speed throughout, set-up and serving did not.)
func calibrate() time.Duration {
	// The table is garbage as soon as the chase ends, so it is in no heap
	// figure of the window.
	table := make([]uint32, 8<<20)
	x := uint32(2463534242)
	for i := range table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[i] = x
	}
	mask := uint32(len(table) - 1)
	start := time.Now()
	at := uint32(0)
	for i := uint32(0); i < 1_000_000; i++ {
		at = (table[at] + i) & mask
	}
	elapsed := time.Since(start)
	calibrationSink = at
	return elapsed
}

var calibrationSink uint32 // keeps the chase from being optimised away

// window is the result of one untraced measured window.
type window struct {
	tally   tally
	elapsed time.Duration
	before  processCounters
	after   processCounters
	// liveHeapMB is HeapAlloc after a forced GC at the end of the window,
	// with the deployment still alive.
	liveHeapMB float64
	heapPeakMB float64
	// connsPeak is the most connections that carried a request at once
	// since the deployment started; connsOpened counts the window's dials.
	connsPeak   int
	connsOpened int
	// calibration is the mean of the calibration loop timed just before the
	// warm-up and just after the window.
	calibration time.Duration
}

// measure runs warm-up (discarded) and then a measured window of the
// workload against d, tracing off.
func measure(d *deployment, sched [][]trace.Request, digests map[tile.Coord]uint64, warmup, length time.Duration) (*window, error) {
	g := newGenerator(d, sched, digests)
	runtime.GC() // set-up garbage is not the window's
	calibration := calibrate()
	g.run()
	time.Sleep(warmup)
	heap := watchHeap()
	before := d.counters()
	_, openedBefore := d.conns.snapshot()
	g.measuring.Store(true)
	time.Sleep(length)
	g.measuring.Store(false)
	after := d.counters()
	g.stop.Store(true)
	g.wait()
	win := &window{tally: g.total(), elapsed: after.at.Sub(before.at), before: before, after: after}
	win.calibration = (calibration + calibrate()) / 2
	win.heapPeakMB = heap.peakMB()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	win.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	peak, opened := d.conns.snapshot()
	win.connsPeak, win.connsOpened = peak, opened-openedBefore
	if len(win.tally.samples) == 0 {
		return nil, errors.Join(append([]error{errors.New("no request completed in the window")}, win.tally.errs...)...)
	}
	return win, nil
}

// latenciesMS returns the samples in milliseconds, sorted.
func latenciesMS(samples []time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
