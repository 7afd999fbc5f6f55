package core

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/sim"
)

// CaptureVersion versions what a capture records. DirBroker keeps each
// version's traces in a directory of its own (c<N>), so an older capture is
// never read. Bump it with any change that moves a trace digest pinned in
// internal/check/testdata/golden.
const CaptureVersion = 1

// DirBroker is a TraceBroker backed by a directory tree: one encoded trace
// file per (device, program, input), written atomically when the trace is
// captured. It is the -store of gpuchar and gpuchard: every result is
// re-derived by replay, so a warm directory costs zero simulations.
//
// Both methods follow the TraceBroker contract: a fetch that fails for any
// reason (missing file, stale encoding, corruption) is a miss, and a store
// is best-effort — the caller captures locally and stores over the bad
// entry.
type DirBroker struct {
	dir string
}

// NewDirBroker returns a broker rooted at dir, creating it on first store.
// It refuses a dir that exists but is not a directory, such as a results
// file written before traces were the store.
func NewDirBroker(dir string) (*DirBroker, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("core: trace store %s is not a directory", dir)
	}
	return &DirBroker{dir: dir}, nil
}

// path maps a (device, program, input) key to its file under the capture
// version's directory. Each component is path-escaped, so a slash in a
// name stays within its level.
func (b *DirBroker) path(device, program, input string) string {
	return filepath.Join(b.dir, "c"+strconv.Itoa(CaptureVersion),
		url.PathEscape(device), url.PathEscape(program), url.PathEscape(input)+".trace")
}

// FetchTrace loads the stored trace for the key, or nil when none decodes.
func (b *DirBroker) FetchTrace(device, program, input string) *sim.LaunchTrace {
	data, err := os.ReadFile(b.path(device, program, input))
	if err != nil {
		return nil
	}
	tr, _ := sim.DecodeTrace(data) // nil when it does not decode: a miss
	return tr
}

// StoreTrace encodes and persists the trace via a temp-file rename, so a
// concurrent fetch never sees a partial write.
func (b *DirBroker) StoreTrace(device, program, input string, tr *sim.LaunchTrace) {
	data, err := sim.EncodeTrace(tr)
	if err != nil {
		return
	}
	path := b.path(device, program, input)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		// A file sits where a directory belongs: it is a miss, so the
		// capture takes its place. os.Remove leaves a non-empty directory.
		for at := filepath.Dir(path); len(at) > len(filepath.Clean(b.dir)); at = filepath.Dir(at) {
			os.Remove(at)
		}
		if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
			return
		}
	}
	_ = writeFileAtomic(path, data) // best-effort, per the TraceBroker contract
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
