package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

const (
	// uploadScale sizes each uploaded capture set (four persona HARs of one
	// service) as a share of the paper's packet counts.
	uploadScale = 0.01
	// uploadVariants is how many capture start times each service's
	// uploads draw from; the upload's distinct name makes every job's
	// snapshot distinct regardless.
	uploadVariants = 4
	// ingestRate is the offered upload rate, a quarter of the 40/s at
	// which the default 16-deep queue overflows on a 2-vCPU host. Rates
	// that queue let run-to-run CPU speed differences of a shared host
	// dominate the latencies.
	ingestRate = 10.0
	// ingestJobLimitMS is the latency limit on job_p95_ms at that rate.
	ingestJobLimitMS = 1000.0
	// warmSeconds of uploads precede every measured upload schedule, so
	// the host's CPUs and the server's heap are up to speed when timing
	// starts.
	warmSeconds = 2
	// reportsChecked is how many served report.json bodies ingest
	// compares byte for byte with a direct pipeline run.
	reportsChecked = 4
)

// uploadSet holds the capture variants uploads are made of.
type uploadSet struct {
	names []string      // service name per index
	parts [][][]harPart // [service][variant] persona HARs
	tails [][][]byte    // [service][variant] rendered multipart tail
	bytes float64       // mean tail size
}

// emitUploads renders every service's persona HARs at uploadVariants
// seeded capture start times into dir. It runs in a child process
// (--emit-uploads): generating the dataset registers the synthetic
// third parties with the process's entity and block lists, which the
// server process never has, so the direct audits that check served
// reports must run in a process that never generated the dataset.
func emitUploads(dir string, seed int64) error {
	ds := synth.Generate(synth.Config{Scale: uploadScale})
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for si, st := range ds.Services {
		names = append(names, st.Spec.Name)
		for v := 0; v < uploadVariants; v++ {
			start := synth.UserStart(1 + rng.Intn(1<<30))
			for _, p := range flows.BuiltinPersonas() {
				data, err := json.Marshal(st.EmitHARAt(p, start))
				if err != nil {
					return err
				}
				if err := os.WriteFile(uploadPath(dir, si, v, p), data, 0o644); err != nil {
					return err
				}
			}
		}
	}
	return os.WriteFile(filepath.Join(dir, "services.txt"), []byte(strings.Join(names, "\n")), 0o644)
}

func uploadPath(dir string, svc, variant int, p flows.Persona) string {
	return filepath.Join(dir, fmt.Sprintf("%d-%d-%s.har", svc, variant, personaField(p)))
}

// personaField is the upload form field naming a persona's capture.
func personaField(p flows.Persona) string {
	return strings.ReplaceAll(strings.ToLower(p.String()), " ", "")
}

// buildUploads runs emitUploads in a child process and loads its files.
func buildUploads(e *env, dir string) (*uploadSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--emit-uploads", dir, "--seed", strconv.FormatInt(e.seed, 10))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("emitting uploads: %w", err)
	}
	names, err := os.ReadFile(filepath.Join(dir, "services.txt"))
	if err != nil {
		return nil, err
	}
	set := &uploadSet{names: strings.Split(string(names), "\n")}
	var total, n float64
	for si := range set.names {
		var parts [][]harPart
		var tails [][]byte
		for v := 0; v < uploadVariants; v++ {
			var ps []harPart
			for _, p := range flows.BuiltinPersonas() {
				data, err := os.ReadFile(uploadPath(dir, si, v, p))
				if err != nil {
					return nil, err
				}
				ps = append(ps, harPart{field: personaField(p), data: data})
			}
			tail, err := filesTail(ps)
			if err != nil {
				return nil, err
			}
			parts = append(parts, ps)
			tails = append(tails, tail)
			total += float64(len(tail))
			n++
		}
		set.parts = append(set.parts, parts)
		set.tails = append(set.tails, tails)
	}
	set.bytes = total / n
	return set, nil
}

// plannedUpload is one scheduled upload.
type plannedUpload struct {
	svc, variant int
	name         string
}

// planUploads takes the services in turn, so every seed uploads the same
// mix, draws each upload's capture variant, and gives it a name no other
// upload of the run has.
func planUploads(rng *rand.Rand, n int, set *uploadSet, tag string) []plannedUpload {
	out := make([]plannedUpload, n)
	for i := range out {
		svc := i % len(set.names)
		out[i] = plannedUpload{svc: svc, variant: rng.Intn(uploadVariants), name: fmt.Sprintf("%s-%s-u%d", set.names[svc], tag, i)}
	}
	return out
}

// directReport is the reference for a served report.json: the same upload
// bytes audited in process (identity guessed from the captures, as the
// server does for an unknown service name) and exported.
func directReport(dir, name string, parts []harPart) ([]byte, *core.ServiceResult, error) {
	var files []captureFile
	for i, p := range parts {
		path := filepath.Join(dir, fmt.Sprintf("part%d.har", i))
		if err := os.WriteFile(path, p.data, 0o644); err != nil {
			return nil, nil, err
		}
		persona, _ := flows.ParsePersona(p.field)
		files = append(files, captureFile{path, true, persona})
	}
	src, closeAll, err := openCaptures(files)
	if err != nil {
		return nil, nil, err
	}
	id, err := core.GuessIdentitySource(name, src)
	closeAll()
	if err != nil {
		return nil, nil, err
	}
	src, closeAll, err = openCaptures(files)
	if err != nil {
		return nil, nil, err
	}
	defer closeAll()
	res, err := core.NewPipeline().AnalyzeStream(id, src)
	if err != nil {
		return nil, nil, err
	}
	js, err := report.ExportJSON([]*core.ServiceResult{res})
	return js, res, err
}

// uploadRun is what one open-loop upload phase observed.
type uploadRun struct {
	rec      *recorder
	late     *sample
	jobs     []string // job ID per planned upload ("" when not accepted)
	maxQueue int
	polls    int // job-listing and health requests the generator made
}

// uploadPhase sends the planned uploads open-loop from workers goroutines
// and waits until every accepted job is terminal. Upload latency runs from
// the due time to the 202. With sampleQueue it also reads the queue depth
// from /v1/healthz every pollInterval.
func uploadPhase(cl *http.Client, base string, set *uploadSet, start time.Time, dues []time.Duration, plan []plannedUpload, workers int, sampleQueue bool) (*uploadRun, error) {
	run := &uploadRun{rec: newRecorder(), jobs: make([]string, len(plan))}
	watch := newJobWatch(cl, base)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var watchErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		var last time.Duration
		if len(dues) > 0 {
			last = dues[len(dues)-1]
		}
		watchErr = watch.run(stop, start.Add(last+2*time.Minute))
	}()
	go func() {
		defer wg.Done()
		for sampleQueue {
			if h, err := getHealth(cl, base); err == nil && h.QueueDepth > run.maxQueue {
				run.maxQueue = h.QueueDepth
			}
			run.polls++
			select {
			case <-stop:
				return
			case <-time.After(pollInterval):
			}
		}
	}()
	run.late = openLoop(start, dues, workers, func(i int, due time.Time) {
		p := plan[i]
		run.rec.attempt()
		id, resp, err := postUpload(cl, base, p.name, set.tails[p.svc][p.variant])
		switch {
		case err != nil:
			run.rec.fail("upload %s: %v", p.name, err)
		case id == "":
			run.rec.fail("upload %s: HTTP %d %s", p.name, resp.status, excerpt(resp.body))
		default:
			run.rec.observe("upload", time.Since(due))
			run.jobs[i] = id
			watch.add(id, due)
		}
	})
	close(stop)
	wg.Wait()
	if watchErr != nil {
		return nil, watchErr
	}
	run.polls += watch.polls
	finishJobs(run.rec, watch.done)
	return run, nil
}

// finishJobs records each terminal job's latency from its upload's due
// time to the server's finished_at stamp. A job that ended without a
// stored snapshot fails the output check that every 202 reaches done.
func finishJobs(rec *recorder, done map[int]jobDone) {
	for _, d := range done {
		j := d.view
		if j.State != "done" || j.SnapshotHash == "" || j.SnapError != "" {
			rec.mismatch("job %s ended %s without a stored snapshot: %s%s", j.ID, j.State, j.Error, j.SnapError)
			continue
		}
		rec.observe("job", j.FinishedAt.Sub(d.due))
		rec.observe("queue_wait", j.StartedAt.Sub(j.SubmittedAt))
		rec.observe("job_run", j.FinishedAt.Sub(j.StartedAt))
	}
}

// checkReports compares the served report.json of a seeded sample of
// accepted jobs with directReport on the same upload bytes.
func checkReports(r *result, cl *http.Client, base, dir string, rng *rand.Rand, set *uploadSet, plan []plannedUpload, jobs []string) error {
	var accepted []int
	for i, id := range jobs {
		if id != "" {
			accepted = append(accepted, i)
		}
	}
	rng.Shuffle(len(accepted), func(a, b int) { accepted[a], accepted[b] = accepted[b], accepted[a] })
	if len(accepted) > reportsChecked {
		accepted = accepted[:reportsChecked]
	}
	r.check(len(accepted) > 0, "no accepted upload to check a report of")
	for _, i := range accepted {
		p := plan[i]
		resp, err := doGet(cl, base+"/v1/jobs/"+jobs[i]+"/report.json", "")
		if err != nil {
			return err
		}
		want, _, err := directReport(dir, p.name, set.parts[p.svc][p.variant])
		if err != nil {
			return err
		}
		r.check(resp.status == http.StatusOK && bytes.Equal(resp.body, want),
			"report.json of %s (%s): HTTP %d, %d bytes, differs from the direct audit (%d bytes)", jobs[i], p.name, resp.status, len(resp.body), len(want))
	}
	return nil
}

// warmUploads sends warmSeconds of uploads at the measured rate and waits
// for their jobs; they are not measured, but each must succeed.
func warmUploads(e *env, cl *http.Client, base string, set *uploadSet, rng *rand.Rand) error {
	dues := arrivals(rng, ingestRate, warmSeconds*time.Second)
	plan := planUploads(rng, len(dues), set, fmt.Sprintf("s%d-warm", e.seed))
	run, err := uploadPhase(cl, base, set, time.Now(), dues, plan, e.conns, false)
	if err != nil {
		return err
	}
	if run.rec.failed > 0 {
		return fmt.Errorf("warm-up uploads failed: %v", append(run.rec.errs, run.rec.wrong...))
	}
	return nil
}

func excerpt(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}

func runIngest(e *env) (*result, error) {
	if e.trace {
		return ingestTraced(e)
	}
	r := &result{slots: map[string]float64{}}
	var set *uploadSet
	var srv *serverProc
	var dir string
	setup := func() (func(), error) {
		var err error
		if dir, err = os.MkdirTemp(e.work, "ingest-"); err != nil {
			return nil, err
		}
		teardown := func() { os.RemoveAll(dir) }
		if set, err = buildUploads(e, dir); err != nil {
			return teardown, err
		}
		if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
			return teardown, err
		}
		srv, err = startServer(e.serverBin, filepath.Join(dir, "data"), filepath.Join(dir, "tmp"), filepath.Join(dir, "server.log"))
		if err != nil {
			return teardown, err
		}
		return func() { srv.stop(); teardown() }, nil
	}
	setupS, teardown, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}
	defer teardown()

	rng := rand.New(rand.NewSource(e.seed))
	cl := newClient(e.conns)
	if err := warmUploads(e, cl, srv.base, set, rng); err != nil {
		return nil, err
	}
	dues := arrivals(rng, ingestRate, e.seconds)
	plan := planUploads(rng, len(dues), set, fmt.Sprintf("s%d", e.seed))
	run, err := uploadPhase(cl, srv.base, set, time.Now().Add(50*time.Millisecond), dues, plan, e.conns, true)
	if err != nil {
		return nil, err
	}
	h, err := getHealth(cl, srv.base)
	if err != nil {
		return nil, err
	}
	if err := checkReports(r, cl, srv.base, dir, rng, set, plan, run.jobs); err != nil {
		return nil, err
	}
	rss := srv.peakRSSMB()

	r.collect(run.rec)
	r.add("setup_s", "s", setupS, setupReps)
	r.timing("upload_p50_ms", run.rec.get("upload"), 50)
	r.timing("upload_p95_ms", run.rec.get("upload"), 95)
	job := run.rec.get("job")
	r.slots["p50_ms"] = r.timing("job_p50_ms", job, 50)
	r.timing("job_p90_ms", job, 90)
	r.timing("job_p95_ms", job, 95)
	r.add("failed_ratio", "ratio", ratio(r.failed, r.attempted), r.attempted)
	r.add("peak_rss_mb", "MB", rss, 0)
	r.prop("offered_rate", "1/s", ingestRate)
	r.prop("achieved_rate", "1/s", float64(job.n())/e.seconds.Seconds())
	r.prop("job_p95_limit_ms", "ms", ingestJobLimitMS)
	r.prop("capture_mb_per_upload", "MB", set.bytes/1e6)
	r.prop("gen.late_p99_ms", "ms", run.late.percentile(99))
	r.prop("gen.polls_per_s", "1/s", float64(run.polls)/e.seconds.Seconds())
	r.prop("server.queue_depth_max", "count", float64(run.maxQueue))
	r.prop("server.queue_wait_p50_ms", "ms", run.rec.get("queue_wait").percentile(50))
	r.prop("server.job_run_p50_ms", "ms", run.rec.get("job_run").percentile(50))
	r.prop("admission.ewma_ms", "ms", h.Admission.EWMAms)
	r.prop("server.shed", "count", float64(h.Admission.Shed))
	r.slots["setup_s"] = setupS
	r.slots["peak_rss_mb"] = rss
	if v := job.percentile(95); v > ingestJobLimitMS {
		r.notes = append(r.notes, fmt.Sprintf("job_p95_ms %.1f exceeds the %.0f ms limit at %.1f uploads/s", v, ingestJobLimitMS, ingestRate))
	}
	return r, nil
}
