package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"forecache"
)

// The served dataset and the training study are fixed: they are the
// deployment, not its traffic. -seed decides the traffic only (README,
// "Seeds": with the world seeded too, the hit rate moved by 8 points from
// seed to seed and no bound could hold). 512 cells a side in 16-cell tiles
// is a six-level pyramid of 1365 tiles.
const (
	worldSeed     = 7
	trainSeed     = 7
	worldSize     = 512
	worldTileSize = 16
)

// setupTimes are the stages of one set-up, from nothing to the first
// request being sendable.
type setupTimes struct {
	BuildWorld, Study, Train, NewServer, Total time.Duration
}

// deployment is one workload's server on a real loopback listener, with
// the benchmark's interposers around it.
type deployment struct {
	w     workload
	ds    *forecache.Dataset
	train []*forecache.Trace
	srv   *forecache.Server
	http  *http.Server
	base  string
	meter *meter
	clock *countingClock
	conns *connGauge
	log   *spanLog // nil unless traced
	setup setupTimes

	stateDir string
	served   chan error
}

// setUp builds the world, trains on the simulated study and starts the
// workload's deployment. A traced deployment also turns on the
// program's own Tracing and /metrics and records boundary spans.
func setUp(w workload, traced bool, outDir string) (*deployment, error) {
	d := &deployment{w: w, conns: &connGauge{}, served: make(chan error, 1)}
	if traced {
		d.log = newSpanLog()
	}
	start := time.Now()
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: worldSeed, Size: worldSize, TileSize: worldTileSize})
	if err != nil {
		return nil, err
	}
	d.ds = ds
	built := time.Now()
	d.train = ds.SimulateStudy(trainSeed)
	studied := time.Now()

	cfg := w.Config
	cfg.Latency = benchLatency
	d.clock = &countingClock{latency: benchLatency, real: w.RealSleep, log: d.log}
	cfg.Clock = d.clock
	cfg.Tracing, cfg.MetricsEndpoint = traced, traced
	if w.Persist {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if d.stateDir, err = os.MkdirTemp(outDir, "state-"); err != nil {
			return nil, err
		}
		cfg.StateDir = d.stateDir
	}
	arts, err := ds.Train(d.train, cfg)
	if err != nil {
		d.removeState()
		return nil, err
	}
	trained := time.Now()
	cfg.Artifacts = arts
	srv, err := ds.NewServer(nil, cfg)
	if err != nil {
		d.removeState()
		return nil, err
	}
	d.srv = srv
	d.meter = newMeter(srv, d.log)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		d.removeState()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.meter, ConnState: d.conns.track}
	go func() { d.served <- d.http.Serve(ln) }()
	end := time.Now()
	d.setup = setupTimes{
		BuildWorld: built.Sub(start),
		Study:      studied.Sub(built),
		Train:      trained.Sub(studied),
		NewServer:  end.Sub(trained),
		Total:      end.Sub(start),
	}
	return d, nil
}

// close stops the deployment and waits for the listener goroutine. The
// middleware closes first: that ends every /stream handler. The client
// side then drops its idle connections — the transport may hold one it
// dialled and never used, which the server would otherwise wait out as a
// request still to come — so the HTTP shutdown has nothing left to wait for.
func (d *deployment) close() error {
	d.srv.Close()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if err != nil {
		err = fmt.Errorf("http shutdown: %w", err)
		d.http.Close()
	}
	<-d.served
	d.removeState()
	return err
}

func (d *deployment) removeState() {
	if d.stateDir != "" {
		os.RemoveAll(d.stateDir)
	}
}
