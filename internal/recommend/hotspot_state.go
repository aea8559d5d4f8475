package recommend

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"forecache/internal/tile"
)

// This file is the Hotspot model's snapshot surface (internal/persist):
// the per-level observation counters and the decayed per-tile consumption
// weights serialize so a restarted deployment ranks candidates by what the
// population was consuming before the restart, not just the training-trace
// seed. Export leaves out entries decayed below the noise floor.

// HotspotStateVersion is the snapshot section format version for Hotspot
// state.
const HotspotStateVersion = 1

// hotspotState is the serialized counter table, entries sorted by
// coordinate so export→import→export round-trips byte for byte.
type hotspotState struct {
	// LevelN is the per-zoom-level observation total (the decay clock),
	// always hotspotMaxLevels long.
	LevelN []int64 `json:"level_n"`
	// Entries are the surviving per-tile weights.
	Entries []hotspotEntry `json:"entries"`
}

// hotspotEntry is one tile's raw weight: score at the clock value LastN
// (decay stays lazy, exactly as in the live table).
type hotspotEntry struct {
	Level int     `json:"level"`
	Y     int     `json:"y"`
	X     int     `json:"x"`
	Score float64 `json:"score"`
	LastN int64   `json:"last_n"`
}

// ExportState serializes the counter table, leaving out entries whose
// decayed weight has fallen below the noise floor.
func (h *Hotspot) ExportState() ([]byte, error) {
	st := hotspotState{LevelN: make([]int64, hotspotMaxLevels)}
	h.mu.Lock()
	copy(st.LevelN, h.levelN[:])
	for c, e := range h.w {
		if e.score*math.Pow(hotspotGamma, float64(st.LevelN[level(c)]-e.lastN)) < noiseWeight {
			continue
		}
		st.Entries = append(st.Entries, hotspotEntry{Level: c.Level, Y: c.Y, X: c.X, Score: e.score, LastN: e.lastN})
	}
	h.mu.Unlock()
	sort.Slice(st.Entries, func(i, j int) bool {
		return coordOf(st.Entries[i]).Less(coordOf(st.Entries[j]))
	})
	return json.Marshal(st)
}

func coordOf(e hotspotEntry) tile.Coord {
	return tile.Coord{Level: e.Level, Y: e.Y, X: e.X}
}

// ImportState validates a previously exported payload and replaces the
// counter table wholesale. On any validation failure the table is left
// untouched.
func (h *Hotspot) ImportState(raw []byte) error {
	var st hotspotState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("recommend: hotspot state: %w", err)
	}
	if len(st.LevelN) != hotspotMaxLevels {
		return fmt.Errorf("recommend: hotspot state: %d level counters, want %d", len(st.LevelN), hotspotMaxLevels)
	}
	for l, n := range st.LevelN {
		if n < 0 {
			return fmt.Errorf("recommend: hotspot state: level %d counter %d negative", l, n)
		}
	}
	w := make(map[tile.Coord]hotEntry, len(st.Entries))
	for _, e := range st.Entries {
		c := coordOf(e)
		if _, dup := w[c]; dup {
			return fmt.Errorf("recommend: hotspot state: duplicate entry %v", c)
		}
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score <= 0 {
			return fmt.Errorf("recommend: hotspot state: entry %v score %v", c, e.Score)
		}
		if n := st.LevelN[level(c)]; e.LastN < 0 || e.LastN > n {
			return fmt.Errorf("recommend: hotspot state: entry %v clock %d outside [0, %d]", c, e.LastN, n)
		}
		w[c] = hotEntry{score: e.Score, lastN: e.LastN}
	}
	h.mu.Lock()
	copy(h.levelN[:], st.LevelN)
	h.w = w
	h.mu.Unlock()
	return nil
}
