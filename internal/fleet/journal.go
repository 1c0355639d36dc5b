package fleet

// The coordinator's write-ahead journal. Every durable state
// transition — job submission, lease grant, completion, permanent
// failure, job cancellation and key release — is appended as one
// checksummed record (runstate.AppendLog framing) and fsync'd before
// the transition is acknowledged, so a coordinator killed at any
// instant can be restarted from the journal directory with its task
// state reconstructed:
//
//   - completed tasks keep their checksummed payloads and are never
//     re-leased (the paper's premise: labels are the expensive
//     resource, a paid-for evaluation must survive any process death);
//   - leased-but-unfinished tasks are conservatively re-queued (the
//     lessee may have died with the coordinator, and re-execution is
//     safe because tasks are deterministic and ingestion idempotent);
//   - queued tasks come back queued, in submission order;
//   - released jobs (results already collected by their submitter)
//     stay gone, so re-submitting the same coordinates later works.
//
// Record grammar (JSON payloads inside the al1 frame, one op each):
//
//	{"op":"submit","job":J,"specs":[TaskSpec...]}   job J enqueued
//	{"op":"lease","key":K,"worker":W}               one attempt granted
//	{"op":"complete","key":K,"worker":W,
//	 "payload":P,"sum":S,"elapsed_ns":E}            first valid result
//	{"op":"fail","key":K,"msg":M,"attempts":A}      permanent failure
//	{"op":"cancel","job":J}                         job canceled
//	{"op":"release","job":J}                        results collected
//
// Journal files live in the configured directory as seg-<n>.wal
// segments: each boot replays every *.wal in name order, then opens a
// fresh segment for its own appends. When the last live job is
// released the state is empty by construction, so the segments are
// deleted and numbering restarts — the journal never grows across
// campaigns, only within one.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/runstate"
)

// Journal op codes.
const (
	opSubmit   = "submit"
	opLease    = "lease"
	opComplete = "complete"
	opFail     = "fail"
	opCancel   = "cancel"
	opRelease  = "release"
)

// journalRecord is the wire form of one journal entry. Field presence
// depends on Op (see the grammar above).
type journalRecord struct {
	Op    string     `json:"op"`
	Job   string     `json:"job,omitempty"`
	Specs []TaskSpec `json:"specs,omitempty"`

	Key       string          `json:"key,omitempty"`
	Worker    string          `json:"worker,omitempty"`
	Payload   json.RawMessage `json:"payload,omitempty"`
	Sum       uint64          `json:"sum,omitempty"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`

	Msg      string `json:"msg,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// journal owns the coordinator's current WAL segment. All methods are
// called under the coordinator's mutex.
type journal struct {
	dir  string
	seq  int // current segment number
	log  *runstate.AppendLog
	logf func(format string, args ...interface{})
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.wal", n) }

// openJournal creates the directory if needed and opens a fresh
// segment numbered after the highest existing one.
func openJournal(dir string, after int, logf func(string, ...interface{})) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating journal dir: %w", err)
	}
	j := &journal{dir: dir, seq: after + 1, logf: logf}
	log, err := runstate.OpenAppendLog(filepath.Join(dir, segName(j.seq)))
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// append journals one record. A write failure is reported to the
// caller; the coordinator surfaces it on the transition that needed it
// (durability must not be silently lost).
func (j *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: encoding journal record: %w", err)
	}
	if err := j.log.Append(data); err != nil {
		return fmt.Errorf("fleet: journal append: %w", err)
	}
	return nil
}

// close closes the current segment.
func (j *journal) close() {
	if j.log != nil {
		_ = j.log.Close()
		j.log = nil
	}
}

// compact is called when the coordinator's state is empty (no live
// tasks, no unreleased jobs): everything in the journal is history, so
// the segments are deleted and a fresh one opened. A crash anywhere in
// the middle is safe — replaying any surviving subset of segments
// still reconstructs the empty state, because every job in them has
// its release record or is gone entirely.
func (j *journal) compact() {
	segs, err := journalSegments(j.dir)
	if err != nil {
		return
	}
	j.close()
	for _, s := range segs {
		_ = os.Remove(filepath.Join(j.dir, s))
	}
	j.seq++
	log, err := runstate.OpenAppendLog(filepath.Join(j.dir, segName(j.seq)))
	if err != nil {
		if j.logf != nil {
			j.logf("fleet: journal compaction lost the log: %v", err)
		}
		return
	}
	j.log = log
}

// journalSegments lists the directory's *.wal files in name order —
// segment numbers are zero-padded, so lexicographic is boot order.
func journalSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("fleet: reading journal dir: %w", err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// recovery is the state reconstructed from a journal replay.
type recovery struct {
	tasks   map[string]*task
	order   []*task            // live tasks in submission order
	jobs    map[string][]*task // unreleased jobs → their tasks in order
	jobFPs  map[string]uint64  // job → spec fingerprint
	lastSeg int                // highest segment number seen
	autoSeq int64              // highest auto job number seen

	completed []string // keys finished with a valid payload
	requeued  []string // keys that were mid-lease and bounced back
	torn      int      // bytes skipped across all segments
	corrupt   int      // completion records dropped by payload checksum
}

// replayJournal scans every *.wal segment in dir and folds the records
// into a recovery. A torn tail in any segment is skipped with its byte
// count recorded; records after the tear (there are none under the
// crash model, but bit rot happens) are abandoned with it.
func replayJournal(dir string, logf func(string, ...interface{})) (*recovery, error) {
	rec := &recovery{
		tasks:  make(map[string]*task),
		jobs:   make(map[string][]*task),
		jobFPs: make(map[string]uint64),
	}
	segs, err := journalSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		var n int
		if _, err := fmt.Sscanf(seg, "seg-%d.wal", &n); err == nil && n > rec.lastSeg {
			rec.lastSeg = n
		}
		records, torn, err := runstate.ReplayLog(filepath.Join(dir, seg))
		if err != nil {
			return nil, err
		}
		if torn > 0 {
			rec.torn += torn
			if logf != nil {
				logf("fleet: journal %s: skipping %d-byte torn tail", seg, torn)
			}
		}
		for _, raw := range records {
			var jr journalRecord
			if err := json.Unmarshal(raw, &jr); err != nil {
				// A framed-but-unparsable record is journal damage
				// beyond the crash model; stop trusting this segment.
				if logf != nil {
					logf("fleet: journal %s: undecodable record skipped: %v", seg, err)
				}
				continue
			}
			rec.apply(&jr, logf)
		}
	}
	return rec, nil
}

// apply folds one journal record into the recovery state. Records that
// reference unknown keys or jobs (possible after a skipped tear) are
// dropped — the conservative direction, since an unknown completion
// cannot be matched to a task anyway.
func (r *recovery) apply(jr *journalRecord, logf func(string, ...interface{})) {
	switch jr.Op {
	case opSubmit:
		var n int64
		if _, err := fmt.Sscanf(jr.Job, "job-%d", &n); err == nil && n > r.autoSeq {
			r.autoSeq = n
		}
		if _, dup := r.jobs[jr.Job]; dup {
			return
		}
		var ts []*task
		ok := true
		for i := range jr.Specs {
			if _, live := r.tasks[jr.Specs[i].Key]; live {
				ok = false
				break
			}
		}
		if !ok {
			if logf != nil {
				logf("fleet: journal: submit %s collides with live keys; dropped", jr.Job)
			}
			return
		}
		for i := range jr.Specs {
			t := &task{spec: jr.Specs[i], state: taskQueued}
			r.tasks[t.spec.Key] = t
			r.order = append(r.order, t)
			ts = append(ts, t)
		}
		r.jobs[jr.Job] = ts
		r.jobFPs[jr.Job] = specsFingerprint(jr.Specs)
	case opLease:
		if t := r.tasks[jr.Key]; t != nil && t.state != taskFinished {
			t.state = taskLeased
			t.attempts++
			t.worker = jr.Worker
		}
	case opComplete:
		t := r.tasks[jr.Key]
		if t == nil || t.state == taskFinished {
			return
		}
		if Checksum(jr.Payload) != jr.Sum {
			r.corrupt++
			if logf != nil {
				logf("fleet: journal: completion for %s fails its checksum; task re-queued", jr.Key)
			}
			t.state = taskQueued
			t.worker = ""
			return
		}
		t.state = taskFinished
		t.res = TaskResult{
			Key: jr.Key, Payload: jr.Payload, Worker: jr.Worker,
			Attempts: t.attempts, Elapsed: time.Duration(jr.ElapsedNS),
		}
	case opFail:
		if t := r.tasks[jr.Key]; t != nil && t.state != taskFinished {
			t.state = taskFinished
			t.res = TaskResult{Key: jr.Key, Attempts: jr.Attempts, Failed: jr.Msg}
		}
	case opCancel:
		for _, t := range r.jobs[jr.Job] {
			if t.state != taskFinished {
				t.state = taskFinished
				t.res = TaskResult{Key: t.spec.Key, Attempts: t.attempts, Failed: "canceled"}
			}
		}
	case opRelease:
		for _, t := range r.jobs[jr.Job] {
			delete(r.tasks, t.spec.Key)
			t.state = taskFinished // mark for order-slice filtering
			t.released = true
		}
		delete(r.jobs, jr.Job)
		delete(r.jobFPs, jr.Job)
	default:
		if logf != nil {
			logf("fleet: journal: unknown op %q skipped", jr.Op)
		}
	}
}

// finish settles the replayed state for a fresh boot: in-flight leases
// bounce back to the queue (their lessees died with, or before, the
// old coordinator) and the completed/requeued key lists are collected
// for the recovery report.
func (r *recovery) finish() {
	for _, t := range r.order {
		if t.released {
			continue
		}
		switch t.state {
		case taskLeased:
			t.state = taskQueued
			t.worker = ""
			r.requeued = append(r.requeued, t.spec.Key)
		case taskFinished:
			if t.res.Failed == "" {
				r.completed = append(r.completed, t.spec.Key)
			}
		}
	}
}

// specsFingerprint digests a job's specs so a reattach can verify it
// is resuming the same work, not colliding with a different job that
// reused the ID.
func specsFingerprint(specs []TaskSpec) uint64 {
	var buf []byte
	for i := range specs {
		b, _ := json.Marshal(&specs[i])
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return Checksum(buf)
}
