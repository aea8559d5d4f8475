package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"forecache"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Schedule sizes. The seed decides who the users are and where they walk;
// the sizes are fixed, and large enough that a schedule's own hit rate moves
// by well under a percent from seed to seed (README, "Seeds").
const (
	studyPool  = 16 // simulated studies pooled into the study schedule: 864 traces
	walkCount  = 256
	walkMoves  = 64
	seedStride = 1 << 20 // keeps every seed's study seeds apart, and far from trainSeed
)

// studySchedule returns the request sequences of studyPool held-out
// simulated studies (18 users x 3 tasks each), one per trace. None of them
// is the training study.
func studySchedule(ds *forecache.Dataset, seed int64) [][]trace.Request {
	var out [][]trace.Request
	for i := int64(0); i < studyPool; i++ {
		for _, tr := range ds.SimulateStudy((seed+1)*seedStride + i) {
			if len(tr.Requests) > 0 {
				out = append(out, tr.Requests)
			}
		}
	}
	return out
}

// walkSchedule returns walkCount uniform random walks of walkMoves moves:
// each starts at a uniformly chosen tile of the two finest levels and draws
// every move uniformly from the legal ones, so the models are asked about
// paths no training user took.
func walkSchedule(pyr *tile.Pyramid, seed int64) [][]trace.Request {
	rng := rand.New(rand.NewSource(seed))
	finest := pyr.NumLevels() - 1
	out := make([][]trace.Request, walkCount)
	for i := range out {
		level := finest - rng.Intn(min(2, finest+1))
		side := pyr.Side(level)
		cur := tile.Coord{Level: level, Y: rng.Intn(side), X: rng.Intn(side)}
		walk := make([]trace.Request, 0, walkMoves+1)
		walk = append(walk, trace.Request{Coord: cur, Move: trace.None})
		for len(walk) <= walkMoves {
			var legal []trace.Move
			for _, m := range trace.AllMoves() {
				if to := trace.Apply(cur, m); to != cur && pyr.Contains(to) {
					legal = append(legal, m)
				}
			}
			m := legal[rng.Intn(len(legal))]
			cur = trace.Apply(cur, m)
			walk = append(walk, trace.Request{Coord: cur, Move: m})
		}
		out[i] = walk
	}
	return out
}

// encodeSchedule renders a schedule as text, one trace per line; the
// determinism tests compare these bytes.
func encodeSchedule(s [][]trace.Request) []byte {
	var b []byte
	for _, tr := range s {
		for _, r := range tr {
			b = fmt.Appendf(b, "%d/%d/%d:%d ", r.Coord.Level, r.Coord.Y, r.Coord.X, int(r.Move))
		}
		b = append(b, '\n')
	}
	return b
}

// digestTile folds everything a client can observe of a tile into 64 bits:
// coordinate, size, attribute names, every cell (NaN canonicalised, since
// JSON carries it as null) and every signature vector in key order. The
// set-up pass digests the pyramid's own tiles; every response is digested
// the same way and compared.
func digestTile(t *tile.Tile) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mixFloats := func(fs []float64) {
		mix(uint64(len(fs)))
		for _, f := range fs {
			if math.IsNaN(f) {
				mix(0x7ff8000000000001)
			} else {
				mix(math.Float64bits(f))
			}
		}
	}
	mixString := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	mix(uint64(t.Coord.Level))
	mix(uint64(t.Coord.Y))
	mix(uint64(t.Coord.X))
	mix(uint64(t.Size))
	mix(uint64(len(t.Attrs)))
	for _, a := range t.Attrs {
		mixString(a)
	}
	mix(uint64(len(t.Data)))
	for _, g := range t.Data {
		mixFloats(g)
	}
	names := make([]string, 0, len(t.Signatures))
	for name := range t.Signatures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mixString(name)
		mixFloats(t.Signatures[name])
	}
	return h
}

// pyramidDigests digests every tile of the pyramid.
func pyramidDigests(pyr *tile.Pyramid) map[tile.Coord]uint64 {
	out := make(map[tile.Coord]uint64, pyr.NumTiles())
	pyr.EachTile(func(t *tile.Tile) bool {
		out[t.Coord] = digestTile(t)
		return true
	})
	return out
}

// slot is one session seat of the closed loop. It walks its share of the
// schedule trace after trace; every new trace (and, with sessionEvery, every
// few requests) continues under a fresh session id, so session creation and
// eviction are part of every run.
type slot struct {
	name         string // "w<worker>-s<slot>"
	traces       [][]trace.Request
	next, stride int
	sessionEvery int

	gen       int
	cur       []trace.Request
	pos       int
	inSession int
}

// advance returns the slot's next request and whether it opens a new
// session (whose id sessionID then reports).
func (s *slot) advance() (req trace.Request, newSession bool) {
	if s.pos == len(s.cur) {
		s.cur = s.traces[s.next%len(s.traces)]
		s.next += s.stride
		s.pos = 0
		newSession = true
	}
	if s.sessionEvery > 0 && s.inSession == s.sessionEvery {
		newSession = true
	}
	if newSession {
		s.gen++
		s.inSession = 0
	}
	req = s.cur[s.pos]
	s.pos++
	s.inSession++
	return req, newSession
}

func (s *slot) sessionID() string { return fmt.Sprintf("%s-g%d", s.name, s.gen) }

// workerCount is the closed loop's width: two workers, two request
// connections (the box has two cores).
const workerCount = 2

// newSlots deals a workload's slots to the workers: slot j of the workload
// starts at trace j and strides by the slot count, so the slots together
// cover the whole schedule before any trace repeats.
func newSlots(w workload, sched [][]trace.Request) [workerCount][]*slot {
	var out [workerCount][]*slot
	for j := 0; j < w.Slots; j++ {
		wi := j % workerCount
		out[wi] = append(out[wi], &slot{
			name:         fmt.Sprintf("w%d-s%d", wi, j/workerCount),
			traces:       sched,
			next:         j,
			stride:       w.Slots,
			sessionEvery: w.SessionEvery,
		})
	}
	return out
}
