package recommend

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

func trainHotspot(h *Hotspot) {
	coords := []tile.Coord{
		{Level: 2, Y: 1, X: 1}, {Level: 2, Y: 1, X: 2}, {Level: 2, Y: 3, X: 0},
		{Level: 4, Y: 7, X: 7}, {Level: 4, Y: 7, X: 8},
	}
	for i := 0; i < 200; i++ {
		h.ObserveConsumption(coords[i%len(coords)], trace.Foraging)
	}
}

func TestHotspotStateRoundTripBytes(t *testing.T) {
	h := NewHotspot(HotspotConfig{})
	trainHotspot(h)
	first, err := h.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	g := NewHotspot(HotspotConfig{})
	if err := g.ImportState(first); err != nil {
		t.Fatal(err)
	}
	second, err := g.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("export -> import -> export not byte-identical:\n%s\nvs\n%s", first, second)
	}
	for _, c := range []tile.Coord{{Level: 2, Y: 1, X: 1}, {Level: 4, Y: 7, X: 7}, {Level: 9, Y: 0, X: 0}} {
		if got, want := share(g, c), share(h, c); got != want {
			t.Errorf("Share(%v) = %v after restore, want %v", c, got, want)
		}
	}
}

// TestHotspotSnapshotPin pins the exact bytes ExportState writes, for an
// empty table and for a fixed consumption sequence over levels 0-5, and
// that they survive an import -> export round trip. Half of each level's
// traffic goes to two tiles and the rest is spread thin, so some entries
// decay below the 1e-3 noise floor and must be left out. The digests were
// recorded before the code they guard changed shape; a snapshot written by
// an older binary has to keep restoring. testdata/hotspot_snapshot_hl16.json
// holds the bytes of the first pin (3,000 observations at a 16-observation
// half-life, when the half-life could still be set); its digest is that
// pin's constant.
func TestHotspotSnapshotPin(t *testing.T) {
	empty, err := NewHotspot(HotspotConfig{}).ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"level_n":[0` + strings.Repeat(",0", hotspotMaxLevels-1) + `],"entries":null}`; string(empty) != want {
		t.Errorf("empty table exports %s, want %s", empty, want)
	}
	old, err := os.ReadFile("testdata/hotspot_snapshot_hl16.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(old), uint64(0x9eb3ebe8ac42dbcf); got != want {
		t.Errorf("fixture digest = %#x, want %#x", got, want)
	}
	assertRestoresExactly(t, old)

	const want = uint64(0x9b33deca1e026736)
	h := NewHotspot(HotspotConfig{})
	consumePinSequence(t, h, 30000)
	raw, err := h.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(raw); got != want {
		t.Errorf("snapshot digest = %#x, want %#x (%d bytes)", got, want, len(raw))
	}
	assertRestoresExactly(t, raw)
}

// consumePinSequence feeds h n pseudo-random consumptions over levels 0-5
// and checks that the export drops some, but not all, of the tiles seen.
func consumePinSequence(t *testing.T, h *Hotspot, n int) {
	t.Helper()
	seen := make(map[tile.Coord]bool)
	x := uint32(1)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223 // LCG: deterministic on every platform
		l := i % 6
		side := uint32(1) << l
		r := x >> 8
		// Half the traffic goes to the level's first two tiles, so they stay
		// hot while most one-off tiles decay below the floor.
		if r%2 == 0 {
			r %= 2
		}
		c := tile.Coord{Level: l, Y: int(r % (side * side) / side), X: int(r % side)}
		seen[c] = true
		h.ObserveConsumption(c, trace.Foraging)
	}
	raw, err := h.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st hotspotState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Entries) == 0 || len(st.Entries) >= len(seen) {
		t.Fatalf("exported %d of %d observed tiles, want some but not all below the floor", len(st.Entries), len(seen))
	}
}

// assertRestoresExactly imports raw into a fresh table and checks that the
// table exports the same bytes.
func assertRestoresExactly(t *testing.T, raw []byte) {
	t.Helper()
	g := NewHotspot(HotspotConfig{})
	if err := g.ImportState(raw); err != nil {
		t.Fatal(err)
	}
	again, err := g.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Error("import -> export changed the snapshot bytes")
	}
}

func digest(b []byte) uint64 {
	sum := fnv.New64a()
	sum.Write(b)
	return sum.Sum64()
}

// TestHotspotExportDropsNoise: an entry whose decayed weight is below the
// noise floor does not make it into a snapshot.
func TestHotspotExportDropsNoise(t *testing.T) {
	h := NewHotspot(HotspotConfig{})
	stale := tile.Coord{Level: 3, Y: 0, X: 0}
	hot := tile.Coord{Level: 3, Y: 5, X: 5}
	h.ObserveConsumption(stale, trace.Foraging)
	// Ten half-lives of further observations at the level decay stale's
	// weight to 0.5^10 ~= 9.8e-4, below the 1e-3 noise floor.
	for i := 0; i < 10*hotspotHalfLife; i++ {
		h.ObserveConsumption(hot, trace.Foraging)
	}
	raw, err := h.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st hotspotState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Entries) != 1 {
		t.Fatalf("exported %d entries, want only the hot tile", len(st.Entries))
	}
	if coordOf(st.Entries[0]) != hot {
		t.Errorf("survivor = %v, want %v", coordOf(st.Entries[0]), hot)
	}
}

func TestHotspotImportRejectsBadState(t *testing.T) {
	valid := func() hotspotState {
		st := hotspotState{LevelN: make([]int64, hotspotMaxLevels)}
		st.LevelN[2] = 10
		st.Entries = []hotspotEntry{{Level: 2, Y: 1, X: 1, Score: 2.5, LastN: 8}}
		return st
	}
	cases := []struct {
		name   string
		mutate func(*hotspotState)
	}{
		{"short level table", func(s *hotspotState) { s.LevelN = s.LevelN[:10] }},
		{"negative level counter", func(s *hotspotState) { s.LevelN[0] = -1 }},
		{"duplicate entry", func(s *hotspotState) { s.Entries = append(s.Entries, s.Entries[0]) }},
		{"zero score", func(s *hotspotState) { s.Entries[0].Score = 0 }},
		{"clock past level counter", func(s *hotspotState) { s.Entries[0].LastN = 99 }},
		{"negative clock", func(s *hotspotState) { s.Entries[0].LastN = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := valid()
			tc.mutate(&st)
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHotspot(HotspotConfig{})
			trainHotspot(h)
			before, _ := h.ExportState()
			if err := h.ImportState(raw); err == nil {
				t.Fatal("bad state imported without error")
			}
			after, _ := h.ExportState()
			if !bytes.Equal(before, after) {
				t.Error("rejected import still mutated the table")
			}
		})
	}

	h := NewHotspot(HotspotConfig{})
	if err := h.ImportState([]byte("{not json")); err == nil {
		t.Error("malformed JSON imported without error")
	}
}
