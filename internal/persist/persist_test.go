package persist

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeState is a trivially serializable family backing for store tests.
type fakeState struct {
	mu    sync.Mutex
	name  string
	value map[string]int
	fail  bool // Export returns an error when set
}

func (f *fakeState) family(version int) Family {
	return Family{
		Name:    f.name,
		Version: version,
		Export: func() ([]byte, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.fail {
				return nil, fmt.Errorf("export boom")
			}
			return json.Marshal(f.value)
		},
		Import: func(raw []byte) error {
			var v map[string]int
			if err := json.Unmarshal(raw, &v); err != nil {
				return err
			}
			for _, n := range v {
				if n < 0 {
					return fmt.Errorf("negative value")
				}
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			f.value = v
			return nil
		},
	}
}

func newStore(t *testing.T, dir string, fams ...Family) *Store {
	t.Helper()
	st, err := NewStore(Config{Dir: dir, Interval: -1}, fams...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 3, "y": 9}}
	b := &fakeState{name: "beta", value: map[string]int{"z": 1}}
	st := newStore(t, dir, a.family(1), b.family(2))
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	a2 := &fakeState{name: "alpha", value: map[string]int{}}
	b2 := &fakeState{name: "beta", value: map[string]int{}}
	st2 := newStore(t, dir, a2.family(1), b2.family(2))
	results := st2.Restore()
	for fam, r := range results {
		if r != ResultRestored {
			t.Errorf("family %s: %s, want restored", fam, r)
		}
	}
	if a2.value["x"] != 3 || a2.value["y"] != 9 || b2.value["z"] != 1 {
		t.Errorf("restored values wrong: %v %v", a2.value, b2.value)
	}
	status := st2.Status()
	if status.Restored != 2 {
		t.Errorf("Restored = %d, want 2", status.Restored)
	}
}

func TestRestoreNoSnapshotIsCold(t *testing.T) {
	a := &fakeState{name: "alpha", value: map[string]int{"x": 1}}
	st := newStore(t, t.TempDir(), a.family(1))
	results := st.Restore()
	if !strings.HasPrefix(results["alpha"], ResultCold) {
		t.Errorf("restore with no snapshot = %q, want cold", results["alpha"])
	}
	if a.value["x"] != 1 {
		t.Error("cold restore must not touch live state")
	}
	if got := st.Status().Restored; got != 0 {
		t.Errorf("Restored = %d, want 0", got)
	}
}

// TestRestoreCorruptionMatrix damages a valid snapshot in every way the
// issue names and asserts each damaged family cold-starts without a panic
// while intact families still restore.
func TestRestoreCorruptionMatrix(t *testing.T) {
	writeSnapshot := func(t *testing.T, dir string) {
		a := &fakeState{name: "alpha", value: map[string]int{"x": 3}}
		b := &fakeState{name: "beta", value: map[string]int{"z": 7}}
		if err := newStore(t, dir, a.family(1), b.family(1)).Save(); err != nil {
			t.Fatal(err)
		}
	}
	path := func(dir string) string { return filepath.Join(dir, FileName) }

	t.Run("truncated file", func(t *testing.T) {
		dir := t.TempDir()
		writeSnapshot(t, dir)
		raw, err := os.ReadFile(path(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(dir), raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		a := &fakeState{name: "alpha", value: map[string]int{"live": 1}}
		results := newStore(t, dir, a.family(1)).Restore()
		if !strings.HasPrefix(results["alpha"], ResultCold) {
			t.Errorf("truncated snapshot restored: %q", results["alpha"])
		}
		if a.value["live"] != 1 {
			t.Error("truncated snapshot must leave live state untouched")
		}
	})

	t.Run("empty file", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(path(dir), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		a := &fakeState{name: "alpha"}
		results := newStore(t, dir, a.family(1)).Restore()
		if !strings.HasPrefix(results["alpha"], ResultCold) {
			t.Errorf("empty snapshot restored: %q", results["alpha"])
		}
	})

	t.Run("bad checksum damages only its family", func(t *testing.T) {
		dir := t.TempDir()
		writeSnapshot(t, dir)
		var env envelope
		raw, _ := os.ReadFile(path(dir))
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		for i := range env.Sections {
			if env.Sections[i].Name == "alpha" {
				env.Sections[i].Payload = json.RawMessage(`{"x":9999}`) // CRC now stale
			}
		}
		out, _ := json.Marshal(env)
		if err := os.WriteFile(path(dir), out, 0o644); err != nil {
			t.Fatal(err)
		}
		a := &fakeState{name: "alpha", value: map[string]int{}}
		b := &fakeState{name: "beta", value: map[string]int{}}
		results := newStore(t, dir, a.family(1), b.family(1)).Restore()
		if !strings.Contains(results["alpha"], "checksum") {
			t.Errorf("alpha = %q, want checksum cold start", results["alpha"])
		}
		if results["beta"] != ResultRestored {
			t.Errorf("beta = %q, want restored", results["beta"])
		}
		if len(a.value) != 0 || b.value["z"] != 7 {
			t.Errorf("state after mixed restore: %v %v", a.value, b.value)
		}
	})

	t.Run("wrong section version", func(t *testing.T) {
		dir := t.TempDir()
		writeSnapshot(t, dir) // sections at version 1
		a := &fakeState{name: "alpha"}
		b := &fakeState{name: "beta"}
		results := newStore(t, dir, a.family(2), b.family(1)).Restore()
		if !strings.Contains(results["alpha"], "version") {
			t.Errorf("alpha = %q, want version cold start", results["alpha"])
		}
		if results["beta"] != ResultRestored {
			t.Errorf("beta = %q, want restored", results["beta"])
		}
	})

	t.Run("unknown extra section ignored", func(t *testing.T) {
		dir := t.TempDir()
		writeSnapshot(t, dir) // alpha + beta on disk
		a := &fakeState{name: "alpha"}
		results := newStore(t, dir, a.family(1)).Restore() // beta unknown now
		if results["alpha"] != ResultRestored {
			t.Errorf("alpha = %q, want restored despite unknown sibling", results["alpha"])
		}
		if _, ok := results["beta"]; ok {
			t.Error("unknown section must not appear in results")
		}
	})

	t.Run("import rejection cold-starts only its family", func(t *testing.T) {
		dir := t.TempDir()
		a := &fakeState{name: "alpha", value: map[string]int{"x": -5}} // invalid on import
		b := &fakeState{name: "beta", value: map[string]int{"z": 2}}
		if err := newStore(t, dir, a.family(1), b.family(1)).Save(); err != nil {
			t.Fatal(err)
		}
		a2 := &fakeState{name: "alpha", value: map[string]int{}}
		b2 := &fakeState{name: "beta", value: map[string]int{}}
		results := newStore(t, dir, a2.family(1), b2.family(1)).Restore()
		if !strings.Contains(results["alpha"], "rejected") {
			t.Errorf("alpha = %q, want import rejection", results["alpha"])
		}
		if results["beta"] != ResultRestored {
			t.Errorf("beta = %q, want restored", results["beta"])
		}
	})

	t.Run("wrong magic", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(path(dir), []byte(`{"magic":"other","version":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		a := &fakeState{name: "alpha"}
		results := newStore(t, dir, a.family(1)).Restore()
		if !strings.HasPrefix(results["alpha"], ResultCold) {
			t.Errorf("wrong-magic snapshot restored: %q", results["alpha"])
		}
	})
}

// TestCrashMidWriteLeavesNoTempFiles simulates a save dying mid-write: the
// orphaned temp file must be swept at the next startup, must never be read
// as a snapshot, and the previous intact snapshot must still restore.
func TestCrashMidWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 42}}
	if err := newStore(t, dir, a.family(1)).Save(); err != nil {
		t.Fatal(err)
	}
	// The crash: a partial, garbage temp file next to the good snapshot.
	tmp := filepath.Join(dir, FileName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"magic":"forecache-snap`), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "stray.tmp")
	if err := os.WriteFile(other, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	a2 := &fakeState{name: "alpha", value: map[string]int{}}
	results := newStore(t, dir, a2.family(1)).Restore()
	if results["alpha"] != ResultRestored {
		t.Errorf("alpha = %q, want restored from the intact snapshot", results["alpha"])
	}
	if a2.value["x"] != 42 {
		t.Errorf("restored value %v, want the intact snapshot's 42", a2.value)
	}
	for _, p := range []string{tmp, other} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived startup", p)
		}
	}
}

// TestCrashMidWriteWithoutSnapshot: first-ever save dies mid-write. The
// orphan is swept and the family cold-starts; the partial file is never
// parsed.
func TestCrashMidWriteWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, FileName+".tmp")
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := &fakeState{name: "alpha", value: map[string]int{"live": 1}}
	results := newStore(t, dir, a.family(1)).Restore()
	if !strings.HasPrefix(results["alpha"], ResultCold) {
		t.Errorf("alpha = %q, want cold", results["alpha"])
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("orphan temp file survived startup")
	}
}

func TestSaveFailureIsReportedAndRecovers(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 1}, fail: true}
	st := newStore(t, dir, a.family(1))
	if err := st.Save(); err == nil {
		t.Fatal("save with failing export should error")
	}
	status := st.Status()
	if status.Failures != 1 || status.Saves != 0 {
		t.Errorf("failures=%d saves=%d, want 1/0", status.Failures, status.Saves)
	}
	if !strings.HasPrefix(status.LastResult, "error:") {
		t.Errorf("LastResult = %q, want error", status.LastResult)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); !os.IsNotExist(err) {
		t.Error("failed save must not install a snapshot")
	}
	// Exports heal; the next save succeeds and the status flips.
	a.mu.Lock()
	a.fail = false
	a.mu.Unlock()
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	status = st.Status()
	if status.LastResult != "ok" || status.Saves != 1 {
		t.Errorf("after recovery: %+v", status)
	}
	if status.LastBytes <= 0 || status.BytesTotal != int64(status.LastBytes) {
		t.Errorf("byte accounting: %+v", status)
	}
}

func TestIntervalTickerSaves(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 1}}
	st, err := NewStore(Config{Dir: dir, Interval: 5 * time.Millisecond}, a.family(1))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, FileName)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never wrote a snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Status().Saves < 1 {
		t.Errorf("saves = %d, want >= 1", st.Status().Saves)
	}
}

func TestCloseWritesFinalSnapshotAndIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 1}}
	st := newStore(t, dir, a.family(1)) // negative interval: no ticker
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Fatalf("Close did not write a final snapshot: %v", err)
	}
	saves := st.Status().Saves
	if saves != 1 {
		t.Errorf("saves = %d, want 1", saves)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Status().Saves != saves {
		t.Error("second Close must not save again")
	}
}

func TestStatusAge(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	a := &fakeState{name: "alpha", value: map[string]int{}}
	st, err := NewStore(Config{Dir: dir, Interval: -1, clock: func() time.Time { return now }}, a.family(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Status().AgeSeconds; got != -1 {
		t.Errorf("age before any save = %v, want -1", got)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(90 * time.Second)
	status := st.Status()
	if status.AgeSeconds != 90 {
		t.Errorf("age = %v, want 90", status.AgeSeconds)
	}
	if status.LastSaveUnix != 1000 {
		t.Errorf("last save = %d, want 1000", status.LastSaveUnix)
	}
}

func TestNewStoreValidation(t *testing.T) {
	a := &fakeState{name: "alpha"}
	cases := []struct {
		name string
		cfg  Config
		fams []Family
	}{
		{"empty dir", Config{}, []Family{a.family(1)}},
		{"no families", Config{Dir: "x"}, nil},
		{"empty family name", Config{Dir: "x"}, []Family{{Name: "", Export: a.family(1).Export, Import: a.family(1).Import}}},
		{"duplicate family", Config{Dir: "x"}, []Family{a.family(1), a.family(1)}},
		{"nil export", Config{Dir: "x"}, []Family{{Name: "a", Import: a.family(1).Import}}},
	}
	for _, tc := range cases {
		if _, err := NewStore(tc.cfg, tc.fams...); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestSectionCRCMatchesPayload pins the checksum contract: the CRC32 in a
// section covers exactly the payload bytes as they appear in the file.
func TestSectionCRCMatchesPayload(t *testing.T) {
	dir := t.TempDir()
	a := &fakeState{name: "alpha", value: map[string]int{"x": 3}}
	st := newStore(t, dir, a.family(1))
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Sections) != 1 {
		t.Fatalf("sections = %d, want 1", len(env.Sections))
	}
	sec := env.Sections[0]
	if got := crc32.ChecksumIEEE(sec.Payload); got != sec.CRC32 {
		t.Errorf("crc over payload bytes = %d, file says %d", got, sec.CRC32)
	}
}
