package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/k20power"
)

// storedResult is the serialized form of one measurement.
type storedResult struct {
	Program string                 `json:"program"`
	Input   string                 `json:"input"`
	Config  string                 `json:"config"`
	Board   string                 `json:"board"`
	Reps    []k20power.Measurement `json:"reps"`

	ActiveTime float64 `json:"activeTime"`
	Energy     float64 `json:"energy"`
	AvgPower   float64 `json:"avgPower"`

	TrueActiveTime float64 `json:"trueActiveTime"`
	TrueEnergy     float64 `json:"trueEnergy"`

	// Insufficient marks combinations the analyzer rejected; they are
	// cached too so reruns skip the simulation.
	Insufficient bool `json:"insufficient,omitempty"`
}

// storeFile is the on-disk format.
type storeFile struct {
	// Version guards against incompatible caches after model changes.
	Version int            `json:"version"`
	Results []storedResult `json:"results"`
}

// storeVersion must be bumped whenever the simulator or power model changes
// in a way that invalidates cached measurements.
const storeVersion = 2

// StoreVersion is the current on-disk store format/physics version. The
// golden corpus embeds it so a legitimate physics change (version bump)
// is distinguishable from an accidental regression.
const StoreVersion = storeVersion

// SaveStore writes the runner's cached measurements to path as JSON. Only
// completed entries are written.
func (r *Runner) SaveStore(path string) error {
	r.mu.Lock()
	entries := make(map[string]*cacheEntry, len(r.cache))
	for k, e := range r.cache {
		entries[k] = e
	}
	r.mu.Unlock()

	var sf storeFile
	sf.Version = storeVersion
	for key, e := range entries {
		// Entries still inside their sync.Once are skipped: reading res/err
		// before resolved is published would race with a concurrent Measure.
		if !e.resolved.Load() {
			continue
		}
		prog, input, config, board, ok := splitKey(key)
		if !ok {
			continue
		}
		sr := storedResult{Program: prog, Input: input, Config: config, Board: board}
		switch {
		case e.res != nil:
			sr.Reps = e.res.Reps
			sr.ActiveTime = e.res.ActiveTime
			sr.Energy = e.res.Energy
			sr.AvgPower = e.res.AvgPower
			sr.TrueActiveTime = e.res.TrueActiveTime
			sr.TrueEnergy = e.res.TrueEnergy
		case e.err != nil && isInsufficient(e.err):
			sr.Insufficient = true
		default:
			continue // pending or hard-failed: don't persist
		}
		sf.Results = append(sf.Results, sr)
	}
	sort.Slice(sf.Results, func(i, j int) bool {
		a, b := sf.Results[i], sf.Results[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Input != b.Input {
			return a.Input < b.Input
		}
		if a.Board != b.Board {
			return a.Board < b.Board
		}
		return a.Config < b.Config
	})
	data, err := json.MarshalIndent(&sf, "", " ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes data to path through a temp file of its own in the
// same directory and a rename, so readers only ever see a complete file and
// concurrent writers never rename each other's half-written bytes.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// LoadStore seeds the runner's cache from a store written by SaveStore.
// Incompatible versions are rejected so stale physics never leaks into new
// experiments.
func (r *Runner) LoadStore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sf storeFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return fmt.Errorf("core: parsing store %s: %w", path, err)
	}
	if sf.Version != storeVersion {
		return fmt.Errorf("core: store %s has version %d, want %d", path, sf.Version, storeVersion)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[string]*cacheEntry)
	}
	for _, sr := range sf.Results {
		key := joinKey(sr.Program, sr.Input, sr.Config, sr.Board)
		e := &cacheEntry{}
		if sr.Insufficient {
			e.err = fmt.Errorf("%s/%s@%s: %w (cached)", sr.Program, sr.Input, sr.Config,
				k20power.ErrInsufficientSamples)
		} else {
			e.res = &Result{
				Program:        sr.Program,
				Input:          sr.Input,
				Config:         sr.Config,
				Reps:           sr.Reps,
				ActiveTime:     sr.ActiveTime,
				Energy:         sr.Energy,
				AvgPower:       sr.AvgPower,
				TrueActiveTime: sr.TrueActiveTime,
				TrueEnergy:     sr.TrueEnergy,
			}
		}
		e.once.Do(func() {}) // consume the once
		e.resolved.Store(true)
		r.cache[key] = e
	}
	return nil
}

const keySep = "\x00"

// joinKey builds the cache key. The separator is NUL, so NUL (and the escape
// character itself) is escaped inside each field; otherwise a program or
// input name containing "\x00" would corrupt the round trip through
// SaveStore/LoadStore.
func joinKey(prog, input, config, board string) string {
	return escapeKeyPart(prog) + keySep + escapeKeyPart(input) + keySep +
		escapeKeyPart(config) + keySep + escapeKeyPart(board)
}

func splitKey(key string) (prog, input, config, board string, ok bool) {
	parts := make([]string, 0, 4)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			parts = append(parts, key[start:i])
			start = i + 1
		}
	}
	parts = append(parts, key[start:])
	if len(parts) != 4 {
		return "", "", "", "", false
	}
	for i, p := range parts {
		up, valid := unescapeKeyPart(p)
		if !valid {
			return "", "", "", "", false
		}
		parts[i] = up
	}
	return parts[0], parts[1], parts[2], parts[3], true
}

// escapeKeyPart makes a field safe to embed between NUL separators:
// backslash doubles and NUL becomes `\0`.
func escapeKeyPart(s string) string {
	if !strings.ContainsAny(s, "\x00\\") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeKeyPart inverts escapeKeyPart. It reports false on a dangling or
// unknown escape (a malformed key).
func unescapeKeyPart(s string) (string, bool) {
	if !strings.ContainsRune(s, '\\') {
		return s, true
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", false
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '0':
			b.WriteByte(0)
		default:
			return "", false
		}
	}
	return b.String(), true
}
