package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/faults"
	"diffaudit/internal/store"
)

// stalledPipeline returns a NewPipeline that blocks on gate — the
// in-process stand-in for a worker frozen mid-audit when the process is
// killed. Abandoning a server built on it (no Close) leaks the blocked
// goroutine for the remainder of the test binary, which is exactly the
// "process died here" semantics the crash matrix needs.
func stalledPipeline(gate chan struct{}) func() *core.Pipeline {
	return func() *core.Pipeline {
		<-gate
		return core.NewPipeline()
	}
}

// stalledPutStore wraps a Store so Put blocks forever — the crash point
// between "audit finished" and "snapshot durable".
type stalledPutStore struct {
	store.Store
	gate chan struct{}
}

func (s *stalledPutStore) Put(jobID string, r *core.ServiceResult) (store.Meta, error) {
	<-s.gate
	return s.Store.Put(jobID, r)
}

// healthSnapshot decodes GET /healthz.
func healthSnapshot(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	code, body := getBody(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// segmentFiles lists a journal directory's segment files in commit order.
func segmentFiles(t *testing.T, jdir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(jdir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// checkJournalLayout asserts the journal directory holds nothing but
// segments, staging/ and transient .tmp-* files.
func checkJournalLayout(t *testing.T, jdir string) {
	t.Helper()
	entries, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if _, seg := segmentSeq(name); seg || strings.HasPrefix(name, ".tmp-") || (e.IsDir() && name == "staging") {
			continue
		}
		t.Errorf("journal directory holds %q: not a segment, staging/ or .tmp-* file", name)
	}
}

// waitJournalDrained waits until every job has settled out of the
// journal: no segment left and nothing staged. Completion tombstones a
// job and releases its staging just after the job turns done, so the
// check polls.
func waitJournalDrained(t *testing.T, jdir string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		checkJournalLayout(t, jdir)
		segs := segmentFiles(t, jdir)
		staged, err := os.ReadDir(filepath.Join(jdir, "staging"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 && len(staged) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal not drained after every job settled: segments %v, %d staged files", segs, len(staged))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalCrashRecoveryMatrix is the acceptance matrix for the
// journal: a server is abandoned (never Closed — the in-process stand-in
// for kill -9) at several points in a job's life, a fresh server is
// opened over the same journal and store directories, and in every case
// the interrupted job re-runs to done with a report byte-identical to an
// uninterrupted server's, after which the journal holds no segment.
func TestJournalCrashRecoveryMatrix(t *testing.T) {
	harData := string(childHAR(t))
	parts := map[string][2]string{
		"child": {"child.har", harData},
		"name":  {"", "Quizlet"},
	}

	// The uninterrupted baseline.
	baseDir := t.TempDir()
	baseStore, err := store.OpenFSStore(filepath.Join(baseDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	baseSrv := New(Config{Workers: 1, JournalDir: filepath.Join(baseDir, "journal"), Store: baseStore})
	baseTS := httptest.NewServer(baseSrv)
	job := runJob(t, baseTS, parts)
	_, want := getBody(t, baseTS, "/jobs/"+job.ID+"/report.json")
	baseTS.Close()
	baseSrv.Close()
	waitJournalDrained(t, filepath.Join(baseDir, "journal"))

	// submit stages parts and requires 202 without waiting.
	accept := func(t *testing.T, ts *httptest.Server) Job {
		t.Helper()
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		return decodeJob(t, resp)
	}

	// crashedSegments asserts a crash left its acknowledged records in
	// segments and nothing but the one journal format.
	crashedSegments := func(t *testing.T, dir string) {
		t.Helper()
		jdir := filepath.Join(dir, "journal")
		checkJournalLayout(t, jdir)
		if len(segmentFiles(t, jdir)) == 0 {
			t.Fatal("no segment survived the crash — the 202s were not backed by a group commit")
		}
	}

	// recover opens a healthy server over the crashed one's directories
	// and asserts every interrupted job re-runs to a byte-identical done.
	recoverAndCheck := func(t *testing.T, dir string, ids ...string) {
		t.Helper()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Open(Config{Workers: 1, JournalDir: filepath.Join(dir, "journal"), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, id := range ids {
			done := wait(t, ts, id)
			if done.State != JobDone {
				t.Fatalf("recovered %s = %+v", id, done)
			}
			code, got := getBody(t, ts, "/jobs/"+id+"/report.json")
			if code != http.StatusOK {
				t.Fatalf("recovered report %s: %d", id, code)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered %s report differs from the uninterrupted baseline", id)
			}
		}
		// All recovered jobs settled: healthz is back to non-degraded and
		// the journal is empty again.
		if h := healthSnapshot(t, ts); h["degraded"] != false {
			t.Fatalf("healthz after recovery = %v", h)
		}
		waitJournalDrained(t, filepath.Join(dir, "journal"))
	}

	t.Run("killed-with-job-queued-and-job-running", func(t *testing.T) {
		// One wedged worker: job-1 dies running (mid-audit), job-2 dies
		// queued — the first two matrix cells in one crash.
		dir := t.TempDir()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := New(Config{
			Workers:     1,
			JournalDir:  filepath.Join(dir, "journal"),
			Store:       st,
			NewPipeline: stalledPipeline(make(chan struct{})),
		})
		ts := httptest.NewServer(crashed)
		j1 := accept(t, ts)
		j2 := accept(t, ts)
		ts.Close() // abandon crashed without Close: the "kill -9"
		crashedSegments(t, dir)
		recoverAndCheck(t, dir, j1.ID, j2.ID)
	})

	t.Run("killed-mid-store-put", func(t *testing.T) {
		// The audit finished but the snapshot write never returned: the
		// journal record must survive so the restart re-runs the job.
		dir := t.TempDir()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := New(Config{
			Workers:    1,
			JournalDir: filepath.Join(dir, "journal"),
			Store:      &stalledPutStore{Store: st, gate: make(chan struct{})},
		})
		ts := httptest.NewServer(crashed)
		j1 := accept(t, ts)
		// Wait until the worker is provably inside Put (job running, its
		// record still untombstoned in its segment) before "killing" it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("job never reached running")
			}
			resp, err := http.Get(ts.URL + "/jobs/" + j1.ID)
			if err != nil {
				t.Fatal(err)
			}
			var jb Job
			json.NewDecoder(resp.Body).Decode(&jb)
			resp.Body.Close()
			if jb.State == JobRunning {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let the audit reach the stalled Put
		ts.Close()
		crashedSegments(t, dir)
		recoverAndCheck(t, dir, j1.ID)
	})

	t.Run("killed-again-before-recovered-job-settles", func(t *testing.T) {
		// The first restart dies too, with the recovered job wedged
		// mid-audit. Recovery must not depend on writing anything: with
		// every journal write failing during the first restart, the job's
		// original segment is still what carries it through the second
		// crash.
		dir := t.TempDir()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Workers:     1,
			JournalDir:  filepath.Join(dir, "journal"),
			Store:       st,
			NewPipeline: stalledPipeline(make(chan struct{})),
		}
		ts := httptest.NewServer(New(cfg))
		j1 := accept(t, ts)
		ts.Close() // first crash
		crashedSegments(t, dir)

		defer faults.Reset()
		faults.Set("journal.write", faults.Plan{Err: errors.New("journal volume detached"), Count: -1})
		faults.Set("journal.batch", faults.Plan{Err: errors.New("journal volume detached"), Count: -1})
		again, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for again.busy.Load() != 1 { // the recovered job is wedged mid-audit
			if time.Now().After(deadline) {
				t.Fatal("recovered job never started")
			}
			time.Sleep(2 * time.Millisecond)
		}
		faults.Reset() // second crash: abandon again without Close
		crashedSegments(t, dir)
		recoverAndCheck(t, dir, j1.ID)
	})
}

// TestJournalStartupGC: opening a server over a journal littered with
// crash leftovers — interrupted commits (.tmp-*), corrupt, empty and
// fully tombstoned segments, and staging files no record references —
// deletes all of them, and the commit sequence continues past the
// highest segment found.
func TestJournalStartupGC(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
		t.Fatal(err)
	}
	tmpLeft := filepath.Join(jdir, ".tmp-interrupted")
	corrupt := filepath.Join(jdir, "seg-000009.jsonl")
	empty := filepath.Join(jdir, "seg-000004.jsonl")
	settled := filepath.Join(jdir, "seg-000002.jsonl")
	orphan := filepath.Join(jdir, "staging", "diffaudit-child-orphan")
	for _, f := range []string{tmpLeft, corrupt, orphan} {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(journalRecord{Version: journalVersion, ID: "job-5", Service: "Quizlet"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(settled, append(rec, "\n{\"removed\":\"job-5\"}\n"...), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Config{JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, f := range []string{tmpLeft, corrupt, empty, settled, orphan} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s survived startup GC (err=%v)", f, err)
		}
	}
	if _, ok := srv.jobs["job-5"]; ok {
		t.Error("tombstoned job-5 resurrected")
	}
	if srv.journal.seq != 9 {
		t.Errorf("commit sequence after recovery = %d, want 9 (past the highest segment found)", srv.journal.seq)
	}
}

// TestJournalRejectsLegacyLayout: a journal directory still holding the
// pre-segment layout (per-job .job records, .batch group commits, .rm
// tombstone sidecars) holds acknowledged jobs this build cannot read.
// Open refuses it with an error naming the files and the way out, and
// deletes nothing — not the records, and not the staged uploads they
// reference.
func TestJournalRejectsLegacyLayout(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := []string{"job-4.job", "batch-000002.batch", "batch-000002.rm"}
	keep := []string{filepath.Join(jdir, "staging", "diffaudit-child-1.har"), filepath.Join(jdir, ".tmp-interrupted")}
	for _, name := range legacy {
		keep = append(keep, filepath.Join(jdir, name))
	}
	for _, f := range keep {
		if err := os.WriteFile(f, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Open(Config{JournalDir: jdir})
	if err == nil {
		srv.Close()
		t.Fatal("Open accepted a journal in the pre-segment layout")
	}
	for _, want := range append(legacy, "previous build") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	for _, f := range keep {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s was touched by the refused Open: %v", f, err)
		}
	}
}

// TestJournalFailedCommitAcksNothing: when the group commit's fsync fails
// permanently, the upload is rejected with a 5xx — never acknowledged —
// and leaves nothing behind: no segment, no .tmp-* file, no staged
// upload. A reopen over the directory resurrects no job.
func TestJournalFailedCommitAcksNothing(t *testing.T) {
	defer faults.Reset()
	faults.Set("journal.batch", faults.Plan{Err: errors.New("fsync: input/output error"), Count: -1})

	jdir := filepath.Join(t.TempDir(), "journal")
	srv, err := Open(Config{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	resp := submit(t, ts, quizletParts(t))
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("submit with a failing fsync = %d, want 5xx", resp.StatusCode)
	}
	if faults.Calls("journal.batch") == 0 {
		t.Fatal("the commit never reached its fsync")
	}
	ts.Close()
	waitJournalDrained(t, jdir)
	if tmps, _ := filepath.Glob(filepath.Join(jdir, ".tmp-*")); len(tmps) != 0 {
		t.Fatalf("failed commit left temp files: %v", tmps)
	}
	srv.Close()

	faults.Reset()
	again, err := Open(Config{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	again.mu.Lock()
	n := len(again.jobs)
	again.mu.Unlock()
	if n != 0 {
		t.Fatalf("reopen resurrected %d jobs from a failed commit", n)
	}
}

// TestJournalRecoveryMissingUpload: a record whose staged capture is gone
// (the crash interleaved with cleanup, or an operator pruned staging)
// recovers as a failed job with a diagnostic — visible loss, not a
// silent drop and not an endless crash-rerun loop.
func TestJournalRecoveryMissingUpload(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	j, err := openJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	rec := journalRecord{
		Version:     journalVersion,
		ID:          "job-3",
		Service:     "custom-service",
		SubmittedAt: time.Now().UTC(),
		Uploads:     []journalUpload{{Path: filepath.Join(jdir, "staging", "gone.har"), HAR: true, Persona: "child"}},
	}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Config{JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := getBody(t, ts, "/jobs/job-3")
	if code != http.StatusOK {
		t.Fatalf("recovered job: %d: %s", code, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != JobFailed || !strings.Contains(job.Error, "crash recovery") {
		t.Fatalf("job = %+v, want failed with a crash-recovery diagnostic", job)
	}
	// The unrecoverable record must not survive to fail again next boot:
	// it was its segment's only member, so the segment is gone.
	if segs := segmentFiles(t, jdir); len(segs) != 0 {
		t.Fatalf("segment holding the unrecoverable job survived: %v", segs)
	}
	// healthz: a recovered-failed job settled immediately; not degraded.
	if h := healthSnapshot(t, ts); h["degraded"] != false {
		t.Fatalf("healthz = %v", h)
	}
}

// TestJournalRecoveryDegradedHealth: while crash-recovered jobs are still
// re-running, healthz reports degraded with the recovering count; once
// they settle it returns to normal.
func TestJournalRecoveryDegradedHealth(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")

	crashed := New(Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	})
	ts := httptest.NewServer(crashed)
	resp := submit(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	ts.Close() // abandon

	gate := make(chan struct{})
	srv, err := Open(Config{Workers: 1, JournalDir: jdir, NewPipeline: stalledPipeline(gate)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	h := healthSnapshot(t, ts2)
	if h["degraded"] != true || h["recovering"] != float64(1) {
		t.Fatalf("healthz during recovery = %v, want degraded with recovering=1", h)
	}

	close(gate)
	done := wait(t, ts2, job.ID)
	if done.State != JobDone {
		t.Fatalf("recovered job = %+v", done)
	}
	h = healthSnapshot(t, ts2)
	if h["degraded"] != false || h["recovering"] != float64(0) {
		t.Fatalf("healthz after recovery = %v", h)
	}
}

// TestJournalRecoveredIDsFenceNextID: a restarted server must mint IDs
// past every recovered job, or a new upload would alias a crashed one.
func TestJournalRecoveredIDsFenceNextID(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")

	crashed := New(Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	})
	ts := httptest.NewServer(crashed)
	parts := map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	}
	var last Job
	for i := 0; i < 3; i++ {
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		last = decodeJob(t, resp)
	}
	ts.Close() // abandon

	srv, err := Open(Config{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	resp := submit(t, ts2, parts)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", resp.StatusCode)
	}
	fresh := decodeJob(t, resp)
	if jobIDNum(fresh.ID) <= jobIDNum(last.ID) {
		t.Fatalf("fresh job %s does not fence recovered %s", fresh.ID, last.ID)
	}
}

// readSegment returns a segment's lines, and its live records after
// folding the tombstones away.
func readSegment(t *testing.T, path string) (lines int, live []journalRecord) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n"), foldSegment(data)
}

// TestJournalGroupCommitBurstAndRemove pins the group-commit mechanics at
// the journal level: a burst of submits that piles up behind one stalled
// commit lands in a single segment (one staging pass, one sync for the
// whole burst), and remove tombstones a finished job with one line
// appended to its segment — unlinking the segment once the last member
// is gone, and never recreating one a racing unlink removed — so
// recovery can never resurrect a settled job.
func TestJournalGroupCommitBurstAndRemove(t *testing.T) {
	j, err := openJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}

	// Stall the first commit: job-1 syncs alone while jobs 2-4 queue up
	// behind it and must share the second segment.
	faults.Set("journal.batch", faults.Plan{Delay: 300 * time.Millisecond, Count: 1})
	defer faults.Reset()

	rec := func(n int) journalRecord {
		return journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", n), Service: "Quizlet", SubmittedAt: time.Now().UTC()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	appendOne := func(n int) {
		defer wg.Done()
		if err := j.append(rec(n)); err != nil {
			errs <- fmt.Errorf("append job-%d: %w", n, err)
		}
	}
	wg.Add(1)
	go appendOne(1)
	time.Sleep(50 * time.Millisecond) // job-1's commit is inside the stall
	for n := 2; n <= 4; n++ {
		wg.Add(1)
		go appendOne(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	segs := segmentFiles(t, j.dir)
	if len(segs) != 2 {
		t.Fatalf("4 appends (1 + burst of 3) produced %d segments, want 2: %v", len(segs), segs)
	}
	if _, live := readSegment(t, segs[0]); len(live) != 1 {
		t.Fatalf("first segment holds %d records, want 1", len(live))
	}
	if lines, live := readSegment(t, segs[1]); lines != 3 || len(live) != 3 {
		t.Fatalf("burst segment holds %d lines / %d records, want all 3 in one sync", lines, len(live))
	}
	checkJournalLayout(t, j.dir)

	// remove appends one tombstone line to the member's segment — the
	// records already in it are never rewritten...
	j.remove("job-3")
	lines, live := readSegment(t, segs[1])
	if lines != 4 || len(live) != 2 {
		t.Fatalf("after remove(job-3) the burst segment holds %d lines / %d live records, want 4 / 2", lines, len(live))
	}
	for _, r := range live {
		if r.ID == "job-3" {
			t.Fatal("tombstoned job-3 still folds as live")
		}
	}
	// ...never recreates a segment a racing last-member unlink removed...
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	j.remove("job-2")
	if _, err := os.Stat(segs[1]); !os.IsNotExist(err) {
		t.Fatalf("a tombstone recreated an unlinked segment (err=%v)", err)
	}
	// ...and unlinks each segment with its last member.
	j.remove("job-4")
	j.remove("job-1")
	if left := segmentFiles(t, j.dir); len(left) != 0 {
		t.Fatalf("segments survive their last member: %v", left)
	}
	checkJournalLayout(t, j.dir)
}

// TestJournalCrashBetweenBatchStages pins the group commit's crash
// contract at each stage boundary by recovering over the exact directory
// state a kill at that point leaves behind. Before the rename, no client
// saw a 202, so the records owe nothing and are garbage; after the
// rename the segment is the durability promise and every record re-runs
// to a byte-identical report; a tombstoned record stays dead; and a
// torn tombstone tail does not swallow the next tombstone.
func TestJournalCrashBetweenBatchStages(t *testing.T) {
	harData := childHAR(t)
	parts := map[string][2]string{
		"child": {"child.har", string(harData)},
		"name":  {"", "Quizlet"},
	}

	// The uninterrupted baseline report every recovered job must match.
	base := New(Config{Workers: 1})
	baseTS := httptest.NewServer(base)
	baseJob := runJob(t, baseTS, parts)
	_, want := getBody(t, baseTS, "/jobs/"+baseJob.ID+"/report.json")
	baseTS.Close()
	base.Close()

	// stage writes a capture into the journal's staging dir and returns a
	// submit record referencing it.
	stage := func(t *testing.T, jdir, name, id string) journalRecord {
		t.Helper()
		staged := filepath.Join(jdir, "staging", name)
		if err := os.WriteFile(staged, harData, 0o644); err != nil {
			t.Fatal(err)
		}
		return journalRecord{
			Version:     journalVersion,
			ID:          id,
			Service:     "Quizlet",
			SubmittedAt: time.Now().UTC(),
			Uploads:     []journalUpload{{Path: staged, HAR: true, Persona: "child"}},
		}
	}
	mkJournalDir := func(t *testing.T) string {
		t.Helper()
		jdir := filepath.Join(t.TempDir(), "journal")
		if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
			t.Fatal(err)
		}
		return jdir
	}
	// writeSegment writes records as JSON lines, then raw tail bytes
	// (tombstones, or a torn line).
	writeSegment := func(t *testing.T, path string, recs []journalRecord, tail string) {
		t.Helper()
		var data []byte
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			data = append(append(data, line...), '\n')
		}
		if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("killed-before-rename", func(t *testing.T) {
		// The commit died as a temp file: its submitters never got their
		// 202, so recovery must not resurrect the jobs — and must GC the
		// temp file and the staged upload it references.
		jdir := mkJournalDir(t)
		rec := stage(t, jdir, "diffaudit-child-1.har", "job-1")
		tmp := filepath.Join(jdir, ".tmp-batch-interrupted")
		writeSegment(t, tmp, []journalRecord{rec}, "")

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.mu.Lock()
		n := len(srv.jobs)
		srv.mu.Unlock()
		if n != 0 {
			t.Fatalf("unacknowledged commit resurrected %d jobs", n)
		}
		for _, f := range []string{tmp, rec.Uploads[0].Path} {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Errorf("%s survived startup GC (err=%v)", f, err)
			}
		}
	})

	t.Run("killed-after-rename", func(t *testing.T) {
		// The segment landed (a lost directory sync leaves this same state
		// when the entry is still visible): both acknowledged jobs re-run
		// to reports byte-identical to the uninterrupted baseline, and
		// the segment is unlinked once both settle.
		jdir := mkJournalDir(t)
		recs := []journalRecord{
			stage(t, jdir, "diffaudit-child-1.har", "job-1"),
			stage(t, jdir, "diffaudit-child-2.har", "job-2"),
		}
		writeSegment(t, filepath.Join(jdir, "seg-000001.jsonl"), recs, "")

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, id := range []string{"job-1", "job-2"} {
			done := wait(t, ts, id)
			if done.State != JobDone {
				t.Fatalf("recovered %s = %+v", id, done)
			}
			code, got := getBody(t, ts, "/jobs/"+id+"/report.json")
			if code != http.StatusOK {
				t.Fatalf("recovered report %s: %d", id, code)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered %s report differs from the uninterrupted baseline", id)
			}
		}
		waitJournalDrained(t, jdir)
	})

	t.Run("tombstoned-entry-stays-dead", func(t *testing.T) {
		// One segment member finished (its staging was cleaned and its
		// tombstone appended) before the crash; the other was still in
		// flight. Recovery must re-run only the live member —
		// resurrecting the tombstoned one would surface a completed job
		// as a phantom "staged capture missing" failure — and the
		// segment must not outlive the live member.
		jdir := mkJournalDir(t)
		live := stage(t, jdir, "diffaudit-child-3.har", "job-3")
		settled := live
		settled.ID = "job-8"
		settled.Uploads = []journalUpload{{Path: filepath.Join(jdir, "staging", "cleaned-up.har"), HAR: true, Persona: "child"}}
		writeSegment(t, filepath.Join(jdir, "seg-000001.jsonl"), []journalRecord{live, settled}, "{\"removed\":\"job-8\"}\n")

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if done := wait(t, ts, "job-3"); done.State != JobDone {
			t.Fatalf("live segment member job-3 = %+v", done)
		}
		srv.mu.Lock()
		_, resurrected := srv.jobs["job-8"]
		srv.mu.Unlock()
		if resurrected {
			t.Fatal("tombstoned job-8 resurrected as a job")
		}
		waitJournalDrained(t, jdir)
	})

	t.Run("torn-tombstone-tail", func(t *testing.T) {
		// A crash tore a tombstone append. The torn line is skipped, so
		// its job re-runs (idempotent), and recovery ends the tail so
		// the next tombstone still lands on a line of its own.
		jdir := mkJournalDir(t)
		path := filepath.Join(jdir, "seg-000001.jsonl")
		recs := []journalRecord{
			stage(t, jdir, "diffaudit-child-1.har", "job-1"),
			stage(t, jdir, "diffaudit-child-2.har", "job-2"),
		}
		writeSegment(t, path, recs, "{\"removed\":\"jo")
		j, err := openJournal(jdir)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := j.recoverJobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 2 || jobs[0].State != JobQueued || jobs[1].State != JobQueued {
			t.Fatalf("recovered %d jobs, want job-1 and job-2 queued", len(jobs))
		}
		j.remove("job-1")
		if _, live := readSegment(t, path); len(live) != 1 || live[0].ID != "job-2" {
			t.Fatalf("after remove(job-1) the segment folds to %+v, want only job-2", live)
		}
	})
}
