// Command benchmark is the repo's one benchmark: it builds the world, and
// for each workload starts the deployment that
// forecache.Dataset.NewServer builds on a real loopback listener, replays
// seeded traces through internal/client from two closed-loop workers,
// checks every returned tile against the pyramid and prints every metric by
// name with its unit and sample count. See README.md.
//
//	go run ./benchmark -seed 7                      every workload, end to end and per layer
//	go run ./benchmark -workload paper_pull -trace 0 -seconds 20 -seed 3
//	go run ./benchmark -smoke                       everything, tiny, for tests
//	go run ./benchmark -compare a.jsonl b.jsonl     two sets of runs, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	// trace selects what is measured: 0 the end-to-end metrics with tracing
	// off, 1 the per-layer metrics (traced run and probes), -1 both.
	trace int
	// setups is how many times a measured run sets up, reporting the median
	// as setup_s.
	setups int
	// tracedScale and probeScale shrink the traced run's request count and
	// the probes' iteration counts: in proportion when the window is shorter
	// than the default 30 s (the driver's runs must fit its time cap), and
	// to a sliver in the smoke run.
	tracedScale, probeScale float64
	out, outDir             string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 7, "the only source of randomness: it decides the traffic (both request schedules)")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced run and probes); -1: both")
	smoke := fs.Bool("smoke", false, "1 s windows, 300-request traced runs, short probes")
	out := fs.String("out", "", "append one JSON line per workload to this file")
	outDir := fs.String("outdir", filepath.Join("benchmark", "out"), "directory for span files and temporary state")
	doCompare := fs.Bool("compare", false, "compare two result files: benchmark -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		anyWorse, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if anyWorse {
			return 1
		}
		return 0
	}
	opts := options{
		workload:    *workloadName,
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		warmup:      2 * time.Second,
		trace:       *traceMode,
		setups:      3,
		tracedScale: min(1, *seconds/30),
		probeScale:  min(1, *seconds/30),
		out:         *out,
		outDir:      *outDir,
	}
	if *smoke {
		opts.window, opts.warmup, opts.setups = time.Second, 300*time.Millisecond, 1
		opts.tracedScale, opts.probeScale = 0.05, 0.02
	}
	if opts.window <= 0 || opts.trace < -1 || opts.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	if err := benchmark(opts, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRun is everything one workload produced.
type workloadRun struct {
	result
	traced *traced
	// untracedUS is the window's mean time inside the /tile handler, net of
	// real backend waits.
	untracedUS float64
}

func benchmark(opts options, stdout io.Writer) error {
	// One P for everything — server, workers, probes. The two vCPUs of the
	// box this was sized on are sometimes two cores and sometimes two
	// hyperthreads of one, for minutes at a time: with both busy every timing
	// flipped between two values 1.6x apart, with one busy it does not
	// (README, "One processor").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	selected := workloads
	if opts.workload != "" {
		w, ok := findWorkload(opts.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", opts.workload)
		}
		selected = []workload{w}
	}
	var declared []decl
	if opts.trace != 1 {
		declared = append(declared, endToEnd...)
	}
	if opts.trace != 0 {
		declared = append(declared, perLayer...)
	}

	var inputs *probeInputs
	var runs []*workloadRun
	for _, w := range selected {
		fmt.Fprintf(stdout, "== %s: %s\n", w.Name, w.Why)
		r, in, err := runWorkload(w, opts, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		runs = append(runs, r)
		inputs = in
	}

	var problems []string
	if opts.trace != 0 {
		fmt.Fprintln(stdout, "== layer probes")
		probes, err := runProbes(*inputs)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		for _, r := range runs {
			r.Metrics.merge(probes)
			// Both sides net of real backend waits: the two runs' miss shares
			// differ by chance, and one miss is worth a hundred overheads.
			handle := r.Metrics["server.handle_us_mean"]
			overhead := handle.Value - 1e3*r.Metrics["backend.demand_wait_ms_per_req"].Value - r.untracedUS
			r.Metrics.set("obs.trace_overhead_us", overhead, "us", handle.N)
			rows := r.traced.budget(r.Metrics)
			residual := rows[len(rows)-1].us
			r.Metrics.set("server.unattributed_us", residual, "us", handle.N)
			printBudget(stdout, r.Workload, rows, r.Metrics["obs.trace_overhead_us"].Value)
			// Same schedule, same synchronous engine: the traced run's hit
			// count and the core.request probe's are two routes to one number.
			if want := probes["core.request_hits"]; r.Workload == "paper_pull" && (want.N != len(r.traced.tally.samples) || int(want.Value) != r.traced.tally.hits) {
				problems = append(problems, fmt.Sprintf("paper_pull: traced run hit %d of %d requests, core.request probe %d of %d",
					r.traced.tally.hits, len(r.traced.tally.samples), int(want.Value), want.N))
			}
		}
	}

	sum := summary{Metrics: map[string]summaryItem{}}
	var results []result
	for _, r := range runs {
		if opts.trace != 1 {
			printMetrics(stdout, r.Workload+": end-to-end (tracing off)", r.Metrics, endToEnd)
		}
		if opts.trace == 0 {
			printMetrics(stdout, r.Workload+": the window's own layer figures", r.Metrics, perLayer)
		}
		if opts.trace != 0 {
			printMetrics(stdout, r.Workload+": per layer", r.Metrics, perLayer)
		}
		if r.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d of %d requests failed", r.Workload, r.Failed, r.Attempted))
		}
		for _, name := range missing(r.Metrics, declared) {
			problems = append(problems, fmt.Sprintf("%s: declared metric %s is missing or not a number", r.Workload, name))
		}
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, d := range declared {
			key := d.Name
			if len(runs) > 1 {
				key = r.Workload + "/" + d.Name
			}
			sum.Metrics[key] = summaryItem{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
		}
		r.Correct = r.Failed == 0
		results = append(results, r.result)
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "PROBLEM:", p)
	}
	sum.Correct = len(problems) == 0
	if opts.out != "" {
		if err := appendResults(opts.out, results); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout)
	if err := json.NewEncoder(stdout).Encode(sum); err != nil {
		return err
	}
	if !sum.Correct {
		return fmt.Errorf("%d problem(s), listed above", len(problems))
	}
	return nil
}

// runWorkload measures one workload: set-up (several times when setup_s is
// wanted, keeping the last), warm-up, the untraced window, and — when
// per-layer metrics are wanted — the traced run on a fresh deployment.
func runWorkload(w workload, opts options, stdout io.Writer) (*workloadRun, *probeInputs, error) {
	r := &workloadRun{result: result{Workload: w.Name, Seed: opts.seed, Seconds: opts.window.Seconds(), Metrics: metricSet{}}}
	setups, window := opts.setups, opts.window
	if opts.trace == 1 {
		// Only the layer figures of the window are wanted: one set-up and a
		// quarter of the window are enough for them.
		setups, window = 1, opts.window/4
	}
	var d *deployment
	var totals []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if d, err = setUp(w, false, opts.outDir); err != nil {
			return nil, nil, err
		}
		totals = append(totals, d.setup.Total.Seconds())
	}
	// The benchmark's own inputs, generated from the seed; not part of
	// set-up time.
	in := &probeInputs{
		ds:     d.ds,
		train:  d.train,
		study:  studySchedule(d.ds, opts.seed),
		walk:   walkSchedule(d.ds.Pyramid, opts.seed),
		outDir: opts.outDir,
		scale:  opts.probeScale,

		tracedScale: opts.tracedScale,
	}
	sched := in.study
	if w.Schedule == scheduleWalk {
		sched = in.walk
	}
	digests := pyramidDigests(d.ds.Pyramid)

	win, err := measure(d, sched, digests, opts.warmup, window)
	closeErr := d.close()
	if err != nil {
		return nil, nil, err
	}
	if closeErr != nil {
		return nil, nil, closeErr
	}
	if limit := w.connLimit(); win.connsPeak > limit {
		return nil, nil, fmt.Errorf("%d connections carried requests at once; the load model allows %d", win.connsPeak, limit)
	}
	r.Attempted, r.Failed = win.tally.attempted, win.tally.failed
	reportFailures(stdout, win.tally)
	r.Metrics.merge(win.layerMetrics())
	if opts.trace != 1 {
		r.Metrics.merge(win.endToEndMetrics(time.Duration(median(totals)*float64(time.Second)), len(totals)))
	}
	if opts.trace == 0 {
		return r, in, nil
	}

	r.Metrics.merge(d.setup.metrics())
	r.untracedUS = win.untracedHandleUS()
	tr, err := runTraced(w, sched, digests, w.tracedCount(opts.tracedScale), opts.outDir)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tr.writeSpans(opts.outDir); err != nil {
		return nil, nil, err
	}
	r.traced = tr
	r.Attempted += tr.tally.attempted
	r.Failed += tr.tally.failed
	reportFailures(stdout, tr.tally)
	r.Metrics.merge(tr.metrics())
	return r, in, nil
}

func reportFailures(stdout io.Writer, t tally) {
	for _, err := range t.errs {
		fmt.Fprintln(stdout, "FAILED:", err)
	}
}
