package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// storeFile is the on-disk format: the runner's Results under a version.
type storeFile struct {
	// Version guards against incompatible caches after model changes.
	Version int      `json:"version"`
	Results []Result `json:"results"`
}

// storeVersion must be bumped whenever the simulator or power model changes
// in a way that invalidates cached measurements.
const storeVersion = 2

// StoreVersion is the current on-disk store format/physics version. The
// golden corpus embeds it so a legitimate physics change (version bump)
// is distinguishable from an accidental regression.
const StoreVersion = storeVersion

// SaveStore writes the runner's resolved measurements and exclusions
// (Results) to path as JSON.
func (r *Runner) SaveStore(path string) error {
	data, err := json.MarshalIndent(storeFile{Version: storeVersion, Results: r.Results()}, "", " ")
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
	r.ImportResults(sf.Results)
	return nil
}
