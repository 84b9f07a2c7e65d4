// The durable job journal: the piece that makes an accepted upload
// survive a process kill at any point before its snapshot lands.
//
// With Config.JournalDir set, handleSubmit stages uploads under
// <JournalDir>/staging and, before the job is queued, records it in the
// journal. The journal has one on-disk format, the segment: a
// seg-<seq>.jsonl file holding one JSON line per submit record, landed
// by one group commit. Commits run leader/follower: every submitter
// queues its record, and the first one to take the leader token drains
// the queue — closing the batch as soon as the queue empties or
// journalBatchWindow elapses, whichever comes first — and writes the
// whole batch as one segment with a single temp+fsync+rename+dirsync
// instead of four syscalls per record. Submitters whose record was taken
// by a leader block until that segment's sync completes, so the 202 a
// client sees is still a durability promise: an isolated submit leads
// its own batch of one with no goroutine handoff at all, and a
// concurrent burst piles up behind the current leader's fsync and
// shares the next. There is no dedicated committer goroutine — on
// small-core machines the two scheduler handoffs one would cost per
// submit are worth more than the fsync it saves.
//
// A record is never rewritten. Recovery re-runs every live record as a
// queued job whatever state it had reached, so later states have nothing
// to persist. A job that reaches a state recovery must not replay
// (snapshot persisted, or a deterministic failure/timeout) appends one
// tombstone line to its own segment — a single unsynced O_APPEND write,
// because completions overlap submit storms on the same core — and the
// segment is unlinked once its last member is tombstoned. Losing a
// tombstone in a crash only re-runs an idempotent, already-persisted
// job.
//
// On the next Open over the same directory, recovery is one scan: each
// segment folds to its records minus its tombstones (torn or unparseable
// lines are skipped); the survivors are re-queued and keep their segment
// membership, so ordinary completion tombstones them; survivors whose
// staged files are gone come back failed and are tombstoned; segments
// with nothing left alive are unlinked; and the commit sequence
// continues past the highest segment found. Staging files no live record
// references (the upload crashed mid-stage, or its record was lost) and
// .tmp-* leftovers from interrupted commits are deleted, so crashes
// cannot leak disk forever.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
)

// journalVersion versions the record format; readers reject records from
// a future format instead of misinterpreting them.
const journalVersion = 1

// journalBatchWindow is the group-commit gather window: long enough to
// absorb a concurrent burst, short enough to be invisible next to the
// fsync it amortizes. A lone submit never waits it out — its batch
// commits the moment the queue drains.
const journalBatchWindow = 2 * time.Millisecond

// journalRecord is one job's durable form. Personas are recorded by name,
// not ID: registry IDs depend on registration order, which a restarted
// process may not replay identically.
type journalRecord struct {
	Version     int             `json:"version"`
	ID          string          `json:"id"`
	Service     string          `json:"service"`
	SubmittedAt time.Time       `json:"submitted_at"`
	Keylog      string          `json:"keylog,omitempty"`
	Uploads     []journalUpload `json:"uploads"`
}

// journalUpload is one staged capture file.
type journalUpload struct {
	Path    string `json:"path"`
	HAR     bool   `json:"har"`
	Persona string `json:"persona"`
}

// journalLine is one line of a segment as read back: a submit record, or
// — with only Removed set — the tombstone of a record in the same
// segment.
type journalLine struct {
	journalRecord
	Removed string `json:"removed,omitempty"`
}

// commitReq is one submit record waiting for its batch to sync. The
// leader that commits the batch sends exactly one value on done — the
// batch's outcome.
type commitReq struct {
	rec  journalRecord
	done chan error
}

// journal persists job records under one directory.
type journal struct {
	dir string

	// pending queues submit records for the next batch; leaderTok is a
	// one-slot token channel — whoever holds the token is the leader
	// and commits everything pending.
	pending   chan commitReq
	leaderTok chan struct{}

	// Segment membership: which live segment holds which job's record,
	// so remove can tombstone it and know when a segment has fully
	// emptied. Guarded by mu; the maps only ever describe files that are
	// already durable. mu is on the commit hot path, so it only ever
	// covers map work — remove's tombstone append happens with it free.
	mu        sync.Mutex
	seq       uint64
	segments  map[uint64]map[string]struct{}
	segmentOf map[string]uint64
}

// openJournal creates (if needed) the journal and staging directories.
func openJournal(dir string) (*journal, error) {
	j := &journal{
		dir:       dir,
		pending:   make(chan commitReq, 64),
		leaderTok: make(chan struct{}, 1),
		segments:  make(map[uint64]map[string]struct{}),
		segmentOf: make(map[string]uint64),
	}
	j.leaderTok <- struct{}{}
	for _, d := range []string{dir, j.staging()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return j, nil
}

// staging is where journaled servers stage uploads: next to the records,
// on the same (durable) volume, so a journal record's file paths survive
// exactly as long as the record does.
func (j *journal) staging() string { return filepath.Join(j.dir, "staging") }

// segmentPath returns the segment file for a commit sequence number.
func (j *journal) segmentPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("seg-%06d.jsonl", seq))
}

// segmentSeq parses a segment file name back to its sequence number.
func segmentSeq(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	if s, ok = strings.CutSuffix(s, ".jsonl"); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	return seq, err == nil
}

// recordOf builds a job's journal record. The caller owns the job or
// holds s.mu; uploads and keylog are immutable after submit.
func recordOf(job *Job) journalRecord {
	rec := journalRecord{
		Version:     journalVersion,
		ID:          job.ID,
		Service:     job.Service,
		SubmittedAt: job.SubmittedAt,
		Keylog:      job.keylog,
	}
	for _, up := range job.uploads {
		rec.Uploads = append(rec.Uploads, journalUpload{Path: up.path, HAR: up.har, Persona: up.trace.String()})
	}
	return rec
}

// append journals a submit record through the group commit and blocks
// until the segment holding it is durable (or failed). This is what
// gates handleSubmit's 202: the client's acknowledgment is its segment's
// fsync. The "journal.write" injection point models the record write
// failing.
//
// The commit itself runs leader/follower: the record is queued, then
// the submitter either takes the leader token and commits everything
// queued (its own record included, unless an earlier leader already
// took it), or learns on done that a leader committed for it. An
// uncontended submit takes the token immediately and commits a batch
// of one on its own goroutine — no handoff, same scheduling profile as
// a direct write; under contention submitters pile up behind the
// current leader's fsync and the next leader drains them all into one.
func (j *journal) append(rec journalRecord) error {
	if err := faults.Inject("journal.write"); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	req := commitReq{rec: rec, done: make(chan error, 1)}
	j.pending <- req
	for {
		select {
		case err := <-req.done:
			return err
		case <-j.leaderTok:
			j.commitPending()
			j.leaderTok <- struct{}{}
			// Loop: our record was committed either by the batch we
			// just led or by an earlier leader — done has the verdict.
			// (If another leader drained our record while we waited
			// for the token, our own batch was empty or all-others.)
		}
	}
}

// commitPending drains the pending queue into one batch and commits it,
// one staging pass and one fsync+dirsync for the lot. The batch closes
// as soon as the queue empties or the window elapses — batching costs
// an idle submit nothing, and bursts that pile up behind one sync (or
// arrive within the window) share the next. No-op when an earlier
// leader already drained everything.
func (j *journal) commitPending() {
	var batch []commitReq
	deadline := time.Now().Add(journalBatchWindow)
gather:
	for {
		select {
		case req := <-j.pending:
			batch = append(batch, req)
			if time.Now().After(deadline) {
				break gather // sustained pressure: the window caps the batch
			}
		default:
			break gather // queue drained: sync now, don't idle
		}
	}
	if len(batch) == 0 {
		return
	}
	err := j.commitBatch(batch)
	for _, req := range batch {
		req.done <- err
	}
}

// commitBatch lands one batch durably as a new segment: one JSON line
// per record, written with one temp write, one fsync, one rename, one
// directory sync. Membership is registered before any waiter is
// released, so a job that finishes immediately after its 202 can already
// find (and tombstone) its record. The "journal.batch" injection point
// sits between the write and the fsync: it models the sync failing (or
// stalling), after which the temp file is removed and no segment exists.
func (j *journal) commitBatch(batch []commitReq) error {
	recs := make([]journalRecord, len(batch))
	for i, req := range batch {
		recs[i] = req.rec
	}
	sort.Slice(recs, func(a, b int) bool { return jobIDNum(recs[a].ID) < jobIDNum(recs[b].ID) })
	var data []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		data = append(append(data, line...), '\n')
	}
	f, err := os.CreateTemp(j.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = faults.Inject("journal.batch")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	j.seq++
	seq := j.seq
	j.mu.Unlock()
	if err := os.Rename(f.Name(), j.segmentPath(seq)); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if d, err := os.Open(j.dir); err == nil {
		d.Sync()
		d.Close()
	}
	j.mu.Lock()
	m := make(map[string]struct{}, len(recs))
	for _, r := range recs {
		m[r.ID] = struct{}{}
		j.segmentOf[r.ID] = seq
	}
	j.segments[seq] = m
	j.mu.Unlock()
	return nil
}

// remove forgets a job — it reached a state recovery must not replay.
// Its record is tombstoned by appending one line to its segment, and the
// segment is unlinked instead once every member is gone. The append is
// a single unsynced write: far cheaper than rewriting the segment, which
// matters because completions overlap submit storms on the same core.
func (j *journal) remove(id string) {
	j.mu.Lock()
	seq, ok := j.segmentOf[id]
	if !ok {
		j.mu.Unlock()
		return
	}
	delete(j.segmentOf, id)
	members := j.segments[seq]
	delete(members, id)
	empty := len(members) == 0
	if empty {
		delete(j.segments, seq)
	}
	j.mu.Unlock()
	if empty {
		os.Remove(j.segmentPath(seq))
		return
	}
	// No O_CREATE: if a racing remove just unlinked the segment, the open
	// fails instead of recreating a file that holds only this tombstone.
	// O_APPEND writes of short lines don't interleave, so concurrent
	// removes from the same segment need no lock of their own.
	f, err := os.OpenFile(j.segmentPath(seq), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return
	}
	fmt.Fprintf(f, "{\"removed\":%q}\n", id)
	f.Close()
}

// recoverJobs rescans the journal after a restart. Every live record
// becomes a Job: re-runnable ones (staged files present, personas
// registered) come back queued; unrecoverable ones come back failed with
// a diagnostic, so the interruption is visible rather than silent, and
// are tombstoned. As it scans it garbage-collects crash leftovers —
// .tmp-* files from interrupted commits, segments with no live record,
// and staging files no live record references. A directory still
// holding the pre-segment layout is an error: its files are acknowledged
// jobs this build cannot read, so it must not sweep their staging.
func (j *journal) recoverJobs() ([]*Job, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var legacy []string
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".job", ".batch", ".rm":
			legacy = append(legacy, e.Name())
		}
	}
	if len(legacy) > 0 {
		return nil, fmt.Errorf("journal: %s holds files from the pre-segment journal layout (%s); drain it with the previous build — restart that build over this directory and let every job settle — before upgrading",
			j.dir, strings.Join(legacy, ", "))
	}

	// Pass 1: fold each segment to its live records and rebuild the
	// membership that completion tombstones against.
	var recs []journalRecord
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(j.dir, name)
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(path)
			continue
		}
		seq, ok := segmentSeq(name)
		if e.IsDir() || !ok {
			continue
		}
		j.seq = max(j.seq, seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		live := foldSegment(data)
		if len(live) == 0 {
			os.Remove(path) // empty, fully tombstoned or corrupt
			continue
		}
		if data[len(data)-1] != '\n' {
			// A torn tombstone tail: end it so the next tombstone starts
			// on a line of its own instead of being glued to the wreck.
			if f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err == nil {
				f.Write([]byte{'\n'})
				f.Close()
			}
		}
		m := make(map[string]struct{}, len(live))
		for _, rec := range live {
			m[rec.ID] = struct{}{}
			j.segmentOf[rec.ID] = seq
		}
		j.segments[seq] = m
		recs = append(recs, live...)
	}

	// Pass 2: rebuild jobs.
	referenced := map[string]bool{}
	var jobs []*Job
	for _, rec := range recs {
		job := &Job{
			ID:          rec.ID,
			State:       JobQueued,
			Service:     rec.Service,
			SubmittedAt: rec.SubmittedAt,
			Files:       len(rec.Uploads),
			keylog:      rec.Keylog,
			recovered:   true,
		}
		broken := ""
		for _, up := range rec.Uploads {
			persona, ok := flows.ParsePersona(up.Persona)
			if !ok {
				broken = fmt.Sprintf("persona %q is not registered in this process", up.Persona)
				break
			}
			if _, err := os.Stat(up.Path); err != nil {
				broken = fmt.Sprintf("staged capture missing: %v", err)
				break
			}
			job.uploads = append(job.uploads, upload{path: up.Path, har: up.HAR, trace: persona})
		}
		if broken == "" && job.keylog != "" {
			if _, err := os.Stat(job.keylog); err != nil {
				broken = fmt.Sprintf("staged keylog missing: %v", err)
			}
		}
		if broken != "" {
			// Not re-runnable: surface the loss as a failed job instead of
			// re-queueing something that cannot succeed, and release what
			// is left of its staging.
			job.State = JobFailed
			job.Error = "crash recovery: " + broken
			job.FinishedAt = time.Now().UTC()
			job.cleanup()
			j.remove(rec.ID)
		} else {
			for _, up := range job.uploads {
				referenced[up.path] = true
			}
			if job.keylog != "" {
				referenced[job.keylog] = true
			}
		}
		jobs = append(jobs, job)
	}
	// Staging orphans: uploads whose submit crashed before the journal
	// record landed (or whose record was lost) accumulate forever
	// without this sweep.
	if stray, err := os.ReadDir(j.staging()); err == nil {
		for _, e := range stray {
			p := filepath.Join(j.staging(), e.Name())
			if !e.IsDir() && !referenced[p] {
				os.Remove(p)
			}
		}
	}
	// Deterministic re-enqueue order: job IDs are "job-<n>", so numeric
	// order is submission order.
	sort.Slice(jobs, func(a, b int) bool { return jobIDNum(jobs[a].ID) < jobIDNum(jobs[b].ID) })
	return jobs, nil
}

// foldSegment returns a segment's records minus its tombstones. Torn or
// unparseable lines, records without an ID and records from a future
// format are skipped.
func foldSegment(data []byte) []journalRecord {
	var recs []journalRecord
	removed := map[string]bool{}
	for _, raw := range bytes.Split(data, []byte{'\n'}) {
		var line journalLine
		if len(raw) == 0 || json.Unmarshal(raw, &line) != nil {
			continue
		}
		switch {
		case line.Removed != "":
			removed[line.Removed] = true
		case line.ID != "" && line.Version <= journalVersion:
			recs = append(recs, line.journalRecord)
		}
	}
	live := recs[:0]
	for _, rec := range recs {
		if !removed[rec.ID] {
			live = append(live, rec)
		}
	}
	return live
}

// jobIDNum extracts the numeric suffix of a "job-<n>" ID (0 when foreign).
func jobIDNum(id string) int {
	var n int
	fmt.Sscanf(id, "job-%d", &n)
	return n
}
