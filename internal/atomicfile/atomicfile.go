// Package atomicfile provides crash-durable atomic file replacement: the
// write-fsync-rename-fsync sequence every checkpoint, scenario, deployment,
// and server job record in this repo goes through, plus Mkdir, which makes
// a new directory's entry durable the same way.
//
// "Atomic" alone (temp file + rename) only protects against a crash of the
// writing process: readers observe the old content or the new, never a
// truncated file. It does NOT survive power loss — the rename is a metadata
// operation the filesystem may commit before the temp file's data blocks,
// so the machine can come back with the new name pointing at empty or
// garbage blocks. Durability additionally requires fsync of the temp file
// before the rename (data before name) and fsync of the parent directory
// after it (the directory entry itself). This package does both; it is the
// load-bearing half of the deployment server's crash-safety contract
// (DESIGN.md §15).
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically and durably: a unique temp file
// in the same directory is written, fsynced, chmodded to perm, renamed over
// path, and the directory is fsynced. After WriteFile returns, the new
// content survives both a crash of this process and a power loss; a failure
// at any step leaves path untouched and removes the temp file.
//
// Same-directory placement keeps the rename on one filesystem, where it is
// atomic.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		// Data blocks must be on stable storage before the rename commits
		// the name: rename-then-sync can survive a power loss as the new
		// name pointing at unwritten blocks.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp opens mode 0600; match the caller's intended mode.
		err = os.Chmod(tmp.Name(), perm)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //uavlint:allow errdrop -- best-effort temp cleanup on the failure path; the write error below is what matters
		return err
	}
	return syncDir(dir)
}

// Mkdir creates the directory path durably: after it returns, path is a
// directory whose entry in its parent survives a power loss. An existing
// directory is accepted, and its entry is synced again in case a crashed
// writer created it without syncing. A missing parent, or anything but a
// directory at path, is an error.
func Mkdir(path string, perm os.FileMode) error {
	if err := os.Mkdir(path, perm); err != nil {
		if info, serr := os.Stat(path); serr != nil || !info.IsDir() {
			return err
		}
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-committed rename's entry is durable.
// Failures opening or syncing the directory are reported: a caller relying
// on WriteFile for checkpoint durability must know the entry may not
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
