package obsv

import (
	"os"
	"path/filepath"
)

// AtomicFile writes a file through a hidden temp file in the destination's
// directory, renaming it into place only on Commit. Readers therefore never
// observe a partial file: an error, interrupt, or kill mid-write leaves at
// worst a ".tmp-*" file behind, never a truncated final file. The export and
// grid-cache writers share this so an interrupted sweep cannot strand
// corrupt JSONL that a later reader chokes on.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// CreateAtomic starts an atomic write of path. The temp file lives in
// path's directory (renames across filesystems are not atomic).
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return nil, err
	}
	// CreateTemp opens 0600; published files should have normal permissions.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write appends to the pending temp file (io.Writer).
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit closes the temp file and renames it into place. On any error the
// temp file is removed and the final path is left untouched.
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return nil
}

// Abort discards the pending write: the temp file is removed and the final
// path is never created (or, if it already existed, never replaced). Safe to
// call after Commit or a second time; those calls do nothing.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// WriteFileAtomic writes data to path atomically: the bytes land under the
// final name only complete, via temp file and rename.
func WriteFileAtomic(path string, data []byte) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}
