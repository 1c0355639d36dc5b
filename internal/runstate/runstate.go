// Package runstate persists core.Snapshot checkpoints to disk.
//
// The sink writes atomically (temp file + fsync + rename in the
// destination directory, then an fsync of the directory itself so the
// rename is durable), so a crash mid-write can never corrupt the
// previous checkpoint: the file at the configured path is always either
// the old complete snapshot or the new complete snapshot.
//
// Load distinguishes a damaged checkpoint (ErrCorrupt, ErrTruncated)
// from an unreadable one, so callers can decide to fall back to a cold
// start instead of refusing to run.
package runstate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// ErrCorrupt marks a checkpoint file whose contents do not decode as a
// snapshot — typically a file damaged after it was written, since the
// atomic write never publishes a partial one.
var ErrCorrupt = errors.New("runstate: checkpoint corrupt")

// ErrTruncated marks a checkpoint file that ends mid-document — the
// torn-write shape of corruption, reported separately because it is the
// signature of a crashed filesystem rather than a stray edit.
var ErrTruncated = errors.New("runstate: checkpoint truncated")

// FileSink returns a core.Params.Checkpoint function that persists each
// snapshot atomically to path. The parent directory must exist.
func FileSink(path string) func(*core.Snapshot) error {
	return func(snap *core.Snapshot) error {
		return Save(path, snap)
	}
}

// tempSuffix is the os.CreateTemp pattern suffix of Save's temp files.
const tempSuffix = ".tmp-*"

// TempGlob is the filepath.Glob pattern matching the temp files Save
// creates for checkpoints at paths matching path (itself a path or a
// glob). A process that dies between creating one and renaming it over
// the checkpoint leaves it behind; the rename is the commit point, so
// such a file never holds state and may be removed while no Save runs.
func TempGlob(path string) string { return path + tempSuffix }

// Save writes the snapshot atomically to path: temp file in the same
// directory, fsync, rename over path, then fsync the directory so the
// rename itself survives a power loss. A snapshot that does not encode
// (a Model that is not valid JSON included) fails before the temp file
// exists, leaving the previous checkpoint untouched.
func Save(path string, snap *core.Snapshot) error {
	data, err := encode(snap)
	if err != nil {
		return fmt.Errorf("runstate: encoding snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempSuffix)
	if err != nil {
		return fmt.Errorf("runstate: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the previous
	// checkpoint at path is untouched until the final rename.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runstate: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runstate: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstate: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstate: publishing snapshot: %w", err)
	}
	return syncDir(dir)
}

// modelField is where encoding/json writes a snapshot's nil Model. Every
// field ahead of it is numeric, so its first occurrence is the field
// itself and never the inside of a string.
const modelField = `"model":null`

// encode writes the snapshot as encoding/json does, except that the
// model — when the snapshot carries one rather than a fit seed, the bulk
// of the file, already encoded by its own marshaler (compact, as Session
// snapshots are) — is spliced in verbatim instead of being re-scanned
// and re-compacted. One json.Valid pass keeps a malformed model out of
// the file; it is skipped only for a model the forest's appender wrote
// (Snapshot.ModelAppended), which is valid by construction.
func encode(snap *core.Snapshot) ([]byte, error) {
	model := snap.Model
	if model == nil {
		model = json.RawMessage("null")
	}
	if !snap.ModelAppended() && !json.Valid(model) {
		return nil, errors.New("model is not valid JSON")
	}
	rest := *snap
	rest.Model = nil
	head, err := json.Marshal(&rest)
	if err != nil {
		return nil, err
	}
	i := bytes.Index(head, []byte(modelField))
	if i < 0 {
		return nil, errors.New("model field missing from the encoded snapshot")
	}
	i += len(modelField) - len("null")
	data := make([]byte, 0, len(head)-len("null")+len(model))
	data = append(data, head[:i]...)
	data = append(data, model...)
	return append(data, head[i+len("null"):]...), nil
}

// syncDir makes a just-published rename durable. Platforms whose
// directories cannot be fsynced (the open or sync fails with a
// not-supported error) fall back to the rename's own guarantees.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("runstate: syncing directory %s: %w", dir, err)
	}
	return nil
}

// Load reads a snapshot previously written by Save/FileSink. A file
// that does not decode reports ErrCorrupt; one that ends mid-document
// reports ErrTruncated (which also satisfies errors.Is(err, ErrCorrupt),
// so a single check catches both). Read failures — including a missing
// file — pass through the underlying error.
func Load(path string) (*core.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstate: reading snapshot: %w", err)
	}
	return decode(data, path)
}

// decode parses checkpoint bytes read from the file name, with Load's
// error classification.
func decode(data []byte, name string) (*core.Snapshot, error) {
	var snap core.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) && syntax.Offset >= int64(len(data)) {
			return nil, fmt.Errorf("%w (%w): %s after %d bytes: %v", ErrCorrupt, ErrTruncated, name, len(data), err)
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return &snap, nil
}
