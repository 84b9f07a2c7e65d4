package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

func flip(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x01
	return out
}

func TestFlippedByteFailsArtifactCheck(t *testing.T) {
	arts := []artifact{{"table1", []byte("Table 1\n")}, {"export.json", []byte(`{"services":[]}`)}}
	ref := digests(arts)
	if bad := compareArtifacts(ref, arts); len(bad) != 0 {
		t.Fatalf("identical artifacts reported as differing: %v", bad)
	}
	changed := []artifact{arts[0], {arts[1].name, flip(arts[1].data)}}
	if bad := compareArtifacts(ref, changed); len(bad) != 1 || bad[0] != "export.json" {
		t.Fatalf("flipped export.json: got %v, want [export.json]", bad)
	}
}

func smallDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	return synth.Generate(synth.Config{Scale: 0.002})
}

func TestFlippedByteFailsBodyCheck(t *testing.T) {
	ds := smallDataset(t)
	pop := &population{}
	for _, st := range ds.Services {
		pop.bases = append(pop.bases, core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records()))
	}
	pop.hash = make([]string, 12)
	const seed, key = 5, 7
	pop.hash[key] = "0123456789abcdef"
	body, err := report.ExportJSON([]*core.ServiceResult{pop.variant(seed, key)})
	if err != nil {
		t.Fatal(err)
	}
	r := &result{}
	if err := checkBodies(r, pop, seed, map[int][]byte{key: body}); err != nil || len(r.checks) != 0 {
		t.Fatalf("served body equal to the stored result failed the check: %v %v", err, r.checks)
	}
	r = &result{}
	if err := checkBodies(r, pop, seed, map[int][]byte{key: flip(body)}); err != nil || len(r.checks) != 1 {
		t.Fatalf("one flipped byte: checks = %v (err %v), want one failure", r.checks, err)
	}
}

func TestFlippedByteFailsReportCheck(t *testing.T) {
	st := smallDataset(t).Services[0]
	var parts []harPart
	for _, p := range flows.BuiltinPersonas() {
		data, err := json.Marshal(st.EmitHAR(p))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, harPart{field: personaField(p), data: data})
	}
	set := &uploadSet{names: []string{st.Spec.Name}, parts: [][][]harPart{{parts}}}
	plan := []plannedUpload{{name: "probe-u0"}}
	want, _, err := directReport(t.TempDir(), plan[0].name, parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		body  []byte
		fails int
	}{{want, 0}, {flip(want), 1}} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/jobs/job-1/report.json" {
				http.NotFound(w, r)
				return
			}
			w.Write(c.body)
		}))
		r := &result{}
		err := checkReports(r, srv.Client(), srv.URL, t.TempDir(), rand.New(rand.NewSource(1)), set, plan, []string{"job-1"})
		srv.Close()
		if err != nil || len(r.checks) != c.fails {
			t.Fatalf("served %d bytes: checks = %v (err %v), want %d failure(s)", len(c.body), r.checks, err, c.fails)
		}
	}
}

// TestWrongReadResponsesFailCheck serves reads from a stub that answers
// with a given status and ETag, and expects a failed output check (not
// only a failed operation) whenever they are not the ones due.
func TestWrongReadResponsesFailCheck(t *testing.T) {
	pop := &population{hash: make([]string, popSize)}
	for i := range pop.hash {
		pop.hash[i] = fmt.Sprintf("%064x", i+1)
	}
	right := `"` + pop.hash[0] + `"`
	cases := []struct {
		name   string
		op     int
		status int
		etag   string
		checks int
	}{
		{"snapshot as due", opSnapshot, 200, right, 0},
		{"revalidate as due", opRevalidate, 304, right, 0},
		{"wrong ETag", opSnapshot, 200, `"` + pop.hash[1] + `"`, 1},
		{"stray 304", opSnapshot, 304, right, 1},
		{"304 not given on a match", opRevalidate, 200, right, 1},
		{"304 on another snapshot's validator", opStale, 304, right, 1},
	}
	for _, c := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", c.etag)
			w.WriteHeader(c.status)
		}))
		rec := newRecorder()
		pr := plannedRead{op: c.op, key: 0, other: 1}
		_, ok := readOne(srv.Client(), srv.URL, pop, pr, rec, time.Now())
		srv.Close()
		r := &result{}
		r.collect(rec)
		if len(r.checks) != c.checks || ok != (c.checks == 0) {
			t.Errorf("%s: checks = %v, ok = %v; want %d check failure(s)", c.name, r.checks, ok, c.checks)
		}
		if r.failed != c.checks {
			t.Errorf("%s: failed = %d, want %d", c.name, r.failed, c.checks)
		}
	}
}

func TestJobWithoutSnapshotFailsCheck(t *testing.T) {
	due := time.Now()
	ok := jobView{ID: "job-1", State: "done", SnapshotHash: "abc", SubmittedAt: due, StartedAt: due, FinishedAt: due.Add(time.Second)}
	for _, c := range []struct {
		name   string
		view   func(jobView) jobView
		checks int
	}{
		{"done with a snapshot", func(j jobView) jobView { return j }, 0},
		{"failed", func(j jobView) jobView { j.State, j.SnapshotHash, j.Error = "failed", "", "boom"; return j }, 1},
		{"done, snapshot not stored", func(j jobView) jobView { j.SnapError = "disk full"; return j }, 1},
	} {
		rec := newRecorder()
		finishJobs(rec, map[int]jobDone{1: {view: c.view(ok), due: due}})
		r := &result{}
		r.collect(rec)
		if len(r.checks) != c.checks {
			t.Errorf("%s: checks = %v, want %d failure(s)", c.name, r.checks, c.checks)
		}
		if c.checks == 0 && rec.get("job").n() != 1 {
			t.Errorf("%s: job latency not recorded", c.name)
		}
	}
}
