// Package persist gives the deployment's learned state a life beyond the
// process: versioned, checksummed, crash-safe snapshot and restore of the
// small EWMA tables the closed loops fit online (the position-utility
// curve and per-(phase, model) allocation rates, the adaptive allocation
// shares, the cross-session hotspot counters). Without it every deploy or
// crash pays the full warmup tax the paper's offline-trained models were
// meant to avoid; Kyrix and Continuous Prefetch both assume long-lived
// server-side state, and this package is what makes that assumption
// survivable in production.
//
// The design is deliberately conservative:
//
//   - One snapshot file holds one section per state family, each with its
//     own format version and CRC32 checksum over the payload bytes. A
//     section that fails to decode — wrong version, bad checksum, invalid
//     contents — falls back to cold start for THAT family only and logs a
//     warning; it never fails the other families and never crashes the
//     server. Unknown extra sections (a newer binary's state) are ignored.
//   - Writes are atomic: payload to a temp file, fsync, rename over the
//     snapshot path, fsync the directory. A crash mid-write leaves the
//     previous snapshot intact; Restore sweeps orphaned temp files so a
//     crash loop cannot accumulate them, and a temp file is never read as
//     a snapshot.
//   - Saves run on an interval ticker in their own goroutine and once more
//     from Close, so the request path never carries a disk write. Each
//     family's Export snapshots its tables under the owner's own lock.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FileName is the snapshot's name inside the state directory.
const FileName = "snapshot.json"

// fileVersion is the envelope format version. Sections carry their own
// versions; this one only changes if the envelope shape itself does.
const fileVersion = 1

// fileMagic identifies a forecache snapshot.
const fileMagic = "forecache-snapshot"

// Restore results per family, surfaced under /stats so operators (and the
// CI warm-restart check) can tell a restored deployment from a cold one.
const (
	ResultRestored = "restored"
	ResultCold     = "cold"
)

// Family is one snapshotted state owner: Export serializes its learned
// tables (under the owner's lock) and Import replaces them, validating
// first — an Import error means the family keeps its cold-start state.
type Family struct {
	// Name keys the family's section in the snapshot file.
	Name string
	// Version is the family's payload format version. A snapshot section
	// with a different version is not decoded (cold start for the family).
	Version int
	// Export returns the family's current state as self-contained bytes.
	Export func() ([]byte, error)
	// Import validates and installs previously exported state.
	Import func([]byte) error
}

// Config tunes a Store.
type Config struct {
	// Dir is the state directory; created on the first save if missing.
	Dir string
	// Interval is the background save cadence. 0 means the 30s default;
	// negative disables the ticker (Close still writes a final snapshot).
	Interval time.Duration
	// Logger receives restore/save warnings. nil logs nothing.
	Logger *slog.Logger

	clock func() time.Time // test seam; nil means time.Now
}

// DefaultInterval is the background snapshot cadence when Config.Interval
// is zero. The tables are tiny (a few KB), so the cost of a save is one
// fsync; half a minute bounds how much learning a crash can lose.
const DefaultInterval = 30 * time.Second

// Status is a point-in-time view of the store for /stats and /metrics.
type Status struct {
	// Path is the snapshot file location.
	Path string `json:"path"`
	// Families maps each registered family to its restore result:
	// "restored", or "cold (reason)".
	Families map[string]string `json:"families"`
	// Restored counts families whose state came from the snapshot.
	Restored int `json:"restored"`
	// Saves and Failures count save attempts since construction.
	Saves    int `json:"saves"`
	Failures int `json:"failures"`
	// LastResult is "ok", "error: ...", or "" before the first attempt.
	LastResult string `json:"last_result,omitempty"`
	// LastSaveUnix is the wall time of the last successful save (0 = none).
	LastSaveUnix int64 `json:"last_save_unix,omitempty"`
	// AgeSeconds is the age of the last successful save, -1 before one.
	AgeSeconds float64 `json:"age_seconds"`
	// LastBytes is the size of the last successful snapshot write;
	// BytesTotal accumulates over the store's lifetime.
	LastBytes  int   `json:"last_bytes"`
	BytesTotal int64 `json:"bytes_total"`
}

// Store snapshots a fixed set of state families into one file.
type Store struct {
	dir      string
	path     string
	families []Family
	interval time.Duration
	logger   *slog.Logger
	now      func() time.Time

	mu        sync.Mutex
	restored  map[string]string
	saves     int
	failures  int
	lastErr   error
	attempted bool
	lastSave  time.Time
	lastBytes int
	bytesTot  int64
	started   bool
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewStore builds a store over the given families. It neither reads nor
// writes anything yet: call Restore once before serving, Start to begin
// interval saves, Close for the final snapshot.
func NewStore(cfg Config, families ...Family) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("persist: empty state directory")
	}
	if len(families) == 0 {
		return nil, errors.New("persist: no state families registered")
	}
	seen := make(map[string]bool, len(families))
	for _, f := range families {
		if f.Name == "" {
			return nil, errors.New("persist: family with empty name")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("persist: duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		if f.Export == nil || f.Import == nil {
			return nil, fmt.Errorf("persist: family %q needs both Export and Import", f.Name)
		}
	}
	interval := cfg.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	now := cfg.clock
	if now == nil {
		now = time.Now
	}
	restored := make(map[string]string, len(families))
	for _, f := range families {
		restored[f.Name] = ResultCold + " (not restored yet)"
	}
	return &Store{
		dir:      cfg.Dir,
		path:     filepath.Join(cfg.Dir, FileName),
		families: append([]Family(nil), families...),
		interval: interval,
		logger:   cfg.Logger,
		now:      now,
		restored: restored,
		done:     make(chan struct{}),
	}, nil
}

// envelope is the on-disk file shape.
type envelope struct {
	Magic       string    `json:"magic"`
	Version     int       `json:"version"`
	CreatedUnix int64     `json:"created_unix"`
	Sections    []section `json:"sections"`
}

// section is one family's serialized state. CRC32 (IEEE) covers exactly
// the payload bytes, so a section corrupted in place is detected even when
// the file as a whole still parses.
type section struct {
	Name    string          `json:"name"`
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// Restore sweeps orphaned temp files, reads the snapshot if one exists and
// imports each family's section. Every failure mode — no snapshot, an
// unreadable envelope, a damaged or version-skewed section — degrades to
// cold start (for the file or the single family respectively) with a
// warning; Restore never returns an error and never panics on hostile
// input. Call it once, before the first session is built.
func (s *Store) Restore() map[string]string {
	s.sweepTempFiles()
	cold := func(reason string) map[string]string {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, f := range s.families {
			s.restored[f.Name] = fmt.Sprintf("%s (%s)", ResultCold, reason)
		}
		return copyMap(s.restored)
	}
	raw, err := os.ReadFile(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return cold("no snapshot")
	}
	if err != nil {
		s.warn("snapshot unreadable; cold start", "path", s.path, "err", err)
		return cold("unreadable: " + err.Error())
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.warn("snapshot corrupt; cold start", "path", s.path, "err", err)
		return cold("corrupt envelope")
	}
	if env.Magic != fileMagic {
		s.warn("snapshot has wrong magic; cold start", "path", s.path, "magic", env.Magic)
		return cold("wrong magic")
	}
	if env.Version != fileVersion {
		s.warn("snapshot has unknown file version; cold start", "path", s.path, "version", env.Version)
		return cold(fmt.Sprintf("file version %d", env.Version))
	}
	byName := make(map[string]section, len(env.Sections))
	for _, sec := range env.Sections {
		byName[sec.Name] = sec
	}
	known := make(map[string]bool, len(s.families))
	results := make(map[string]string, len(s.families))
	for _, f := range s.families {
		known[f.Name] = true
		results[f.Name] = s.restoreFamily(f, byName)
	}
	for name := range byName {
		if !known[name] {
			s.warn("snapshot carries unknown section; ignored", "section", name)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, r := range results {
		s.restored[name] = r
	}
	return copyMap(s.restored)
}

// restoreFamily imports one family's section, reporting the result.
func (s *Store) restoreFamily(f Family, byName map[string]section) string {
	sec, ok := byName[f.Name]
	if !ok {
		return ResultCold + " (no section)"
	}
	if sec.Version != f.Version {
		s.warn("snapshot section version mismatch; cold start for family",
			"family", f.Name, "got", sec.Version, "want", f.Version)
		return fmt.Sprintf("%s (section version %d, want %d)", ResultCold, sec.Version, f.Version)
	}
	if crc := crc32.ChecksumIEEE(sec.Payload); crc != sec.CRC32 {
		s.warn("snapshot section checksum mismatch; cold start for family", "family", f.Name)
		return ResultCold + " (checksum mismatch)"
	}
	if err := f.Import(sec.Payload); err != nil {
		s.warn("snapshot section rejected; cold start for family", "family", f.Name, "err", err)
		return ResultCold + " (rejected: " + err.Error() + ")"
	}
	return ResultRestored
}

// sweepTempFiles removes temp files a crashed save left behind, so a crash
// loop cannot accumulate them and a partial write is never mistaken for a
// snapshot (the snapshot path only ever receives complete, renamed files).
func (s *Store) sweepTempFiles() {
	orphans, _ := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
	for _, o := range orphans {
		if err := os.Remove(o); err == nil {
			s.warn("removed orphaned snapshot temp file", "path", o)
		}
	}
}

// Start launches the interval save loop (no-op when the interval is
// negative). Safe to call once; saves run until Close.
func (s *Store) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed || s.interval <= 0 {
		return
	}
	s.started = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.Save(); err != nil {
					s.warn("background snapshot failed", "err", err)
				}
			case <-s.done:
				return
			}
		}
	}()
}

// Save exports every family and atomically replaces the snapshot file:
// temp file, fsync, rename, directory fsync. A crash at any point leaves
// either the old snapshot or the new one, never a partial file at the
// snapshot path. Safe for concurrent use (saves serialize on the store
// lock; Export snapshots under each owner's lock).
func (s *Store) Save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked()
}

func (s *Store) saveLocked() error {
	err := s.writeSnapshot()
	s.attempted = true
	s.lastErr = err
	if err != nil {
		s.failures++
		return err
	}
	s.saves++
	s.lastSave = s.now()
	return nil
}

func (s *Store) writeSnapshot() error {
	env := envelope{Magic: fileMagic, Version: fileVersion, CreatedUnix: s.now().Unix()}
	for _, f := range s.families {
		payload, err := f.Export()
		if err != nil {
			return fmt.Errorf("persist: export %q: %w", f.Name, err)
		}
		env.Sections = append(env.Sections, section{
			Name:    f.Name,
			Version: f.Version,
			CRC32:   crc32.ChecksumIEEE(payload),
			Payload: payload,
		})
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp := s.path + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: install snapshot: %w", err)
	}
	syncDir(s.dir)
	s.lastBytes = len(raw)
	s.bytesTot += int64(len(raw))
	return nil
}

// writeFileSync writes data and fsyncs before closing, so the rename that
// follows never installs a file whose contents are still in flight.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so the rename itself is durable. Best-effort:
// some filesystems refuse directory fsync, and losing the rename in a
// power cut just means restoring the previous snapshot.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// Close stops the interval loop and writes one final snapshot, so learned
// state survives a graceful shutdown without waiting out the ticker.
// Idempotent: only the first call saves; later calls return the last
// save's result.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.lastErr
		s.mu.Unlock()
		return err
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	s.wg.Wait() // the ticker goroutine may be mid-Save; let it finish
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked()
}

// Status snapshots the store's bookkeeping under one lock hold.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Path:       s.path,
		Families:   copyMap(s.restored),
		Saves:      s.saves,
		Failures:   s.failures,
		LastBytes:  s.lastBytes,
		BytesTotal: s.bytesTot,
		AgeSeconds: -1,
	}
	for _, r := range s.restored {
		if r == ResultRestored {
			st.Restored++
		}
	}
	if s.attempted {
		if s.lastErr != nil {
			st.LastResult = "error: " + s.lastErr.Error()
		} else {
			st.LastResult = "ok"
		}
	}
	if !s.lastSave.IsZero() {
		st.LastSaveUnix = s.lastSave.Unix()
		st.AgeSeconds = s.now().Sub(s.lastSave).Seconds()
	}
	return st
}

func (s *Store) warn(msg string, args ...any) {
	if s.logger != nil {
		s.logger.Warn(msg, args...)
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
