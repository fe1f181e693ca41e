package rpc

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"icache/internal/obs"
)

// SaveCheckpoint writes the cache's warm state (see icache.Checkpoint).
func (s *Server) SaveCheckpoint(w io.Writer) error {
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	return s.cache.Checkpoint(w)
}

// LoadCheckpoint restores a warm cache into a fresh server. With rehydrate
// set, the payload store is eagerly refilled from the backend so the first
// client requests hit immediately; otherwise payloads refill lazily on
// first access. Meant for boot time, before Serve: the policy restore runs
// under policyMu, and the rehydration reads run outside it, overlapped up to
// the server's backend-read budget like any other gather (no client traffic
// exists yet to race with). The first failed read stops the rest.
func (s *Server) LoadCheckpoint(r io.Reader, rehydrate bool) error {
	s.policyMu.Lock()
	if err := s.cache.RestoreCheckpoint(r); err != nil {
		s.policyMu.Unlock()
		return err
	}
	residents := s.cache.Residents(nil)
	s.policyMu.Unlock()
	if !rehydrate {
		return nil
	}
	var failed atomic.Pointer[error]
	gather(len(residents), func(i int) {
		if failed.Load() != nil {
			return
		}
		id := residents[i]
		payload, err := s.readBackend(id, obs.TraceCtx{})
		if err != nil {
			err = fmt.Errorf("rpc: rehydrate sample %d: %w", id, err)
			failed.CompareAndSwap(nil, &err)
			return
		}
		s.payloads.put(id, payload)
		s.dec.countAdmit(provRehydrate)
	})
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// atomicWriteFile writes a file crash-atomically: the content goes to a
// temp file in the same directory (same filesystem, so the rename cannot
// degrade to a copy), is fsynced so the bytes are durable before the name
// changes, and is renamed over the target only once complete. The directory
// is then fsynced so the rename itself survives a crash. A failure at any
// step leaves the previous file untouched and removes the temp file — a
// torn write can never replace a good checkpoint with a partial one.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		// Directory fsync is advisory (some filesystems reject it); the
		// rename above is already atomic with respect to readers.
		d.Sync()
		d.Close()
	}
	return nil
}

// SaveCheckpointFile and LoadCheckpointFile are the path-based conveniences
// the icache-server command uses around shutdown/startup. Saves are
// crash-atomic: an error (or crash) mid-write leaves the previous
// checkpoint file intact.
func (s *Server) SaveCheckpointFile(path string) error {
	return atomicWriteFile(path, s.SaveCheckpoint)
}

// LoadCheckpointFile restores from path; a missing file is not an error
// (first boot).
func (s *Server) LoadCheckpointFile(path string, rehydrate bool) (loaded bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := s.LoadCheckpoint(f, rehydrate); err != nil {
		return false, err
	}
	return true, nil
}
