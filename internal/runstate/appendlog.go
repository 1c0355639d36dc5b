package runstate

// AppendLog is the write-ahead half of the package: where Save/Load
// persist one whole snapshot atomically, AppendLog persists a *sequence*
// of records durably — each Append is framed, checksummed and fsync'd
// before it returns, so a reader after any crash sees every
// acknowledged record intact plus at most one torn tail, which Replay
// detects and skips.
//
// Record frame (one line per record, payloads must be newline-free —
// canonical JSON is):
//
//	al1 <len> <fnv1a-64 hex, 16 digits> <payload>\n
//
// A record is valid only if the whole frame parses, the length matches
// and the checksum of the payload bytes matches. Replay stops at the
// first invalid frame and reports the remaining bytes as the torn
// tail: under the append-only crash model only the tail can be torn,
// so anything after a damaged frame is unrecoverable debris from the
// same interrupted write.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
)

// logMagic tags every record frame with the format version.
const logMagic = "al1"

// AppendLog is a durable append-only record log. It is not safe for
// concurrent use; callers serialize Append (the fleet coordinator
// appends under its own mutex).
type AppendLog struct {
	f    *os.File
	path string
}

// OpenAppendLog opens (creating if absent) the log at path for
// appending, and fsyncs the parent directory so the file's existence
// survives a crash.
func OpenAppendLog(path string) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstate: opening append log: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &AppendLog{f: f, path: path}, nil
}

// Append frames, writes and fsyncs one record. When it returns nil the
// record is durable: any later Replay recovers it. Payloads must be
// newline-free (canonical JSON is).
func (l *AppendLog) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return errors.New("runstate: append-log payload contains a newline")
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	var buf bytes.Buffer
	buf.Grow(len(payload) + 32)
	fmt.Fprintf(&buf, "%s %d %016x ", logMagic, len(payload), h.Sum64())
	buf.Write(payload)
	buf.WriteByte('\n')
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("runstate: appending record: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("runstate: syncing append log: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (l *AppendLog) Close() error { return l.f.Close() }

// ReplayLog reads every intact record of the log at path in append
// order. torn reports the number of trailing bytes that did not form a
// complete valid record — the signature of a crash mid-append — which
// are skipped, never guessed at. A missing file is not an error: it
// replays as zero records.
func ReplayLog(path string) (recs [][]byte, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("runstate: reading append log: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, n := parseRecord(data[off:])
		if n == 0 {
			return recs, len(data) - off, nil
		}
		recs = append(recs, payload)
		off += n
	}
	return recs, 0, nil
}

// parseRecord decodes one frame from the head of b. It returns the
// payload and the total frame length, or (nil, 0) when the head is not
// a complete valid frame.
func parseRecord(b []byte) ([]byte, int) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, 0 // no terminator: torn tail
	}
	line := b[:nl]
	rest, ok := bytes.CutPrefix(line, []byte(logMagic+" "))
	if !ok {
		return nil, 0
	}
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, 0
	}
	size, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || size < 0 {
		return nil, 0
	}
	rest = rest[sp+1:]
	if len(rest) < 17 || rest[16] != ' ' {
		return nil, 0
	}
	sum, err := strconv.ParseUint(string(rest[:16]), 16, 64)
	if err != nil {
		return nil, 0
	}
	payload := rest[17:]
	if len(payload) != size {
		return nil, 0
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	if h.Sum64() != sum {
		return nil, 0
	}
	out := make([]byte, size)
	copy(out, payload)
	return out, nl + 1
}
