package forecache

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// pinRecorder is a Feedback and Consumption observer that collects one
// request's hit outcomes and hashes every consumption as it arrives,
// passing consumptions on to the deployment's hotspot table (if any).
type pinRecorder struct {
	h    hash.Hash64
	hits []string
	next core.ConsumptionObserver
}

func (r *pinRecorder) Observe(ph trace.Phase, model string, pos int, hit bool) {
	if hit {
		r.hits = append(r.hits, fmt.Sprintf("%s/%d/%d", model, pos, ph))
	}
}

func (r *pinRecorder) ObserveConsumption(c tile.Coord, ph trace.Phase) {
	fmt.Fprintf(r.h, "c%s/%d;", c, ph)
	if r.next != nil {
		r.next.ObserveConsumption(c, ph)
	}
}

// TestPrefetchPin pins what the engine's prefetch path decides on the 7/512
// world: one FNV-64a over every SimulateStudy(7) trace, replayed with a
// Reset between traces, for k in {1, 3, 5, 8} x d in {1, 2} x hotspot off
// and on. It covers every Response's Hit, Phase and Prefetched, each
// request's hit outcomes (sorted), the consumption stream, and each
// replay's final Hits, Misses and Prefetched.
func TestPrefetchPin(t *testing.T) {
	ds, err := BuildWorld(WorldConfig{Seed: 7, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	traces := ds.SimulateStudy(7)
	h := fnv.New64a()
	var b [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, hotspot := range []bool{false, true} {
		arts, err := ds.Train(traces, MiddlewareConfig{Hotspot: hotspot})
		if err != nil {
			t.Fatal(err)
		}
		hs := arts.set.Hotspot()
		var untrained []byte
		if hs != nil {
			if untrained, err = hs.ExportState(); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 3, 5, 8} {
			for _, d := range []int{1, 2} {
				rec := &pinRecorder{h: h}
				if hs != nil {
					// Every replay starts from the untrained table.
					if err := hs.ImportState(untrained); err != nil {
						t.Fatal(err)
					}
					rec.next = hs
				}
				eng, err := core.NewEngine(backend.NewDBMS(ds.Pyramid, backend.LatencyModel{}, nil),
					arts.cls, arts.prior, arts.set.Models(),
					core.Config{K: k, D: d, Feedback: rec, Consumption: rec})
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range traces {
					eng.Reset()
					for _, r := range tr.Requests {
						resp, err := eng.Request(r.Coord)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "r%t/%d/%v;", resp.Hit, resp.Phase, resp.Prefetched)
						slices.Sort(rec.hits)
						for _, o := range rec.hits {
							io.WriteString(h, o)
						}
						rec.hits = rec.hits[:0]
					}
				}
				st := eng.LifetimeCacheStats()
				word(st.Hits)
				word(st.Misses)
				word(st.Prefetched)
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x83cf0cdde4b6d27a); got != want {
		t.Errorf("prefetch path digest = %#x, want %#x", got, want)
	}
}
