package core

import (
	"net/url"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// DirBroker is a TraceBroker backed by a directory tree: one encoded trace
// file per (device, program, input), written atomically. It gives a single
// process a durable launch-trace store across runs (gpuchar -traces), the
// filesystem analogue of the fleet's HTTP broker: a warm directory replays
// every clock-insensitive program with zero simulations.
//
// Both methods follow the TraceBroker contract: a fetch that fails for any
// reason (missing file, stale encoding, corruption) is a miss, and a store
// is best-effort — the caller falls back to simulating locally either way.
type DirBroker struct {
	dir string
}

// NewDirBroker returns a broker rooted at dir, creating it on first store.
func NewDirBroker(dir string) *DirBroker {
	return &DirBroker{dir: dir}
}

// path maps a (device, program, input) key to its file. Each component is
// path-escaped so names stay within their directory level no matter what
// characters they carry.
func (b *DirBroker) path(device, program, input string) string {
	return filepath.Join(b.dir, url.PathEscape(device), url.PathEscape(program), url.PathEscape(input)+".trace")
}

// FetchTrace loads the stored trace for the key, or nil when none decodes.
func (b *DirBroker) FetchTrace(device, program, input string) *sim.LaunchTrace {
	data, err := os.ReadFile(b.path(device, program, input))
	if err != nil {
		return nil
	}
	tr, err := sim.DecodeTrace(data)
	if err != nil {
		return nil
	}
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	_ = writeFileAtomic(path, data) // best-effort, per the TraceBroker contract
}
