package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffaudit/internal/classifier"
	"diffaudit/internal/core"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/report"
	"diffaudit/internal/server"
	"diffaudit/internal/store"
)

// goid returns the calling goroutine's ID, which ties a store call made
// on a handler goroutine to the request being served.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseUint(string(b), 10, 64)
	return n
}

// requests maps handler goroutines to the root span of the request each
// is serving, so spans recorded below the handler share its trace ID.
type requests struct {
	tr   *tracer
	next atomic.Int64
	mu   sync.Mutex
	byG  map[uint64][2]int // goroutine → {request number, root span}
}

func newRequests(tr *tracer) *requests {
	return &requests{tr: tr, byG: map[uint64][2]int{}}
}

// wrap records one root span per request, named after its route.
func (q *requests) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !q.tr.on() {
			h.ServeHTTP(w, r)
			return
		}
		n := int(q.next.Add(1))
		root := q.tr.begin("req-"+strconv.Itoa(n), 0, "http."+route(r))
		g := goid()
		q.mu.Lock()
		q.byG[g] = [2]int{n, root}
		q.mu.Unlock()
		h.ServeHTTP(w, r)
		q.mu.Lock()
		delete(q.byG, g)
		q.mu.Unlock()
		q.tr.end(root)
	})
}

// current returns the trace ID and root span of the request the calling
// goroutine serves ("", 0 off a handler goroutine).
func (q *requests) current() (string, int) {
	g := goid()
	q.mu.Lock()
	v, ok := q.byG[g]
	q.mu.Unlock()
	if !ok {
		return "", 0
	}
	return "req-" + strconv.Itoa(v[0]), v[1]
}

// route names a request by the endpoint it hits.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/audits"):
		return "upload"
	case strings.HasPrefix(p, "/v1/snapshots/"):
		if r.Header.Get("If-None-Match") != "" {
			return "snapshot_conditional"
		}
		return "snapshot"
	case strings.HasSuffix(p, "/report.json"):
		if r.Header.Get("If-None-Match") != "" {
			return "report_conditional"
		}
		return "report_json"
	case strings.HasSuffix(p, "/report.csv"):
		return "report_csv"
	case strings.HasPrefix(p, "/v1/diff"):
		return "diff"
	case strings.HasPrefix(p, "/v1/jobs"):
		return "jobs"
	case strings.HasPrefix(p, "/v1/healthz"):
		return "healthz"
	}
	return "other"
}

// timedStore is the FSStore the traced server is handed, with a span
// around every call. It keeps FSStore's View and ScrubPass, so the server
// takes the same lazy-view and scrub paths it takes on the bare store.
type timedStore struct {
	inner *store.FSStore
	tr    *tracer
	reqs  *requests
}

var (
	_ store.Viewer   = (*timedStore)(nil)
	_ store.Scrubber = (*timedStore)(nil)
)

func (s *timedStore) span(name string) func() {
	if !s.tr.on() {
		return func() {}
	}
	trace, parent := s.reqs.current()
	id := s.tr.begin(trace, parent, name)
	return func() { s.tr.end(id) }
}

func (s *timedStore) Put(jobID string, r *core.ServiceResult) (store.Meta, error) {
	// Puts run on job workers, not handlers: the job ID is their trace.
	id := s.tr.begin(jobID, 0, "store.put")
	defer s.tr.end(id)
	return s.inner.Put(jobID, r)
}

func (s *timedStore) Get(ref string) (*core.ServiceResult, store.Meta, error) {
	defer s.span("store.get")()
	return s.inner.Get(ref)
}

func (s *timedStore) List() ([]store.Meta, error) {
	defer s.span("store.list")()
	return s.inner.List()
}

func (s *timedStore) Delete(ref string) error {
	defer s.span("store.delete")()
	return s.inner.Delete(ref)
}

func (s *timedStore) View(ref string) (*store.SnapshotView, error) {
	defer s.span("store.view")()
	return s.inner.View(ref)
}

func (s *timedStore) ScrubPass(fetch func(hash string) ([]byte, bool)) store.ScrubResult {
	return s.inner.ScrubPass(fetch)
}

// inProcess is an audit server in the benchmark's own process, configured
// as `diffaudit serve -data-dir` configures it.
type inProcess struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	done    chan struct{}
	stopped sync.Once
}

// startInProcess serves dataDir; with a tracer, behind timedStore and a
// per-request span.
func startInProcess(dataDir, tmpDir string, tr *tracer) (*inProcess, error) {
	fs, err := store.OpenFSStore(dataDir)
	if err != nil {
		return nil, err
	}
	var st store.Store = fs
	var reqs *requests
	if tr != nil {
		reqs = newRequests(tr)
		st = &timedStore{inner: fs, tr: tr, reqs: reqs}
	}
	srv, err := server.Open(server.Config{Store: st, JournalDir: filepath.Join(dataDir, "journal"), TempDir: tmpDir})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if reqs != nil {
		h = reqs.wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &inProcess{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.hs.Serve(ln)
	}()
	return p, nil
}

// stop closes the listener, waits for Serve to return, then drains jobs.
// Calls after the first do nothing.
func (p *inProcess) stop() {
	p.stopped.Do(func() {
		p.hs.Close()
		<-p.done
		p.srv.Close()
	})
}

// pipeStats is the work and time of replaying records through extraction
// and classification.
type pipeStats struct {
	extract, classify time.Duration
	pairs, keys       int
}

// replayPipeline extracts every record's payload pairs, then classifies
// each unit's distinct keys once, as one pipeline's label cache does (the
// pipeline, and so the cache, is per service audit).
func replayPipeline(tr *tracer, units [][]core.RequestRecord) pipeStats {
	opts := extract.DefaultOptions()
	lab := classifier.FinalLabeler()
	var st pipeStats
	for _, recs := range units {
		var keys []string
		seen := map[string]bool{}
		st.extract += tr.timed("replay", 0, "extract.extract", func() {
			for _, rec := range recs {
				for _, kv := range extract.Extract(requestView(rec), opts) {
					if kv.Source == extract.SourceHeader {
						continue
					}
					st.pairs++
					if !seen[kv.Key] {
						seen[kv.Key] = true
						keys = append(keys, kv.Key)
					}
				}
			}
		})
		st.classify += tr.timed("replay", 0, "classifier.classify", func() {
			for _, k := range keys {
				lab.Label(k)
			}
		})
		st.keys += len(keys)
	}
	return st
}

// report adds the replay's metrics, per unit of work.
func (st pipeStats) report(r *result, per float64) {
	r.layer("extract.extract_ms", "ms", ms(st.extract)/per, 0)
	r.layer("extract.pairs", "count", float64(st.pairs)/per, 0)
	r.layer("classifier.classify_ms", "ms", ms(st.classify)/per, 0)
	r.layer("classifier.keys", "count", float64(st.keys)/per, 0)
	r.layer("core.label_reuse_ratio", "ratio", 1-float64(st.keys)/float64(max(st.pairs, 1)), st.pairs)
}

// replayUploads replays uploads one layer at a time: HAR decode, record
// conversion, identity, extraction and classification, analysis, snapshot
// encoding, a durable store put and, withExport, the JSON export. Values
// are means per upload.
func replayUploads(r *result, tr *tracer, dir string, set *uploadSet, plan []plannedUpload, withExport bool) error {
	st, err := store.OpenFSStore(filepath.Join(dir, "replay-store"))
	if err != nil {
		return err
	}
	var decode, analyze, encode, put, export time.Duration
	var entries, records, snapBytes, bodyBytes int
	var units [][]core.RequestRecord
	var ids []core.ServiceIdentity
	for _, p := range plan {
		var recs []core.RequestRecord
		for _, part := range set.parts[p.svc][p.variant] {
			persona, _ := flows.ParsePersona(part.field)
			var h *har.HAR
			var derr error
			decode += tr.timed("replay", 0, "har.decode", func() { h, derr = decodeHAR(part.data) })
			if derr != nil {
				return derr
			}
			entries += len(h.Log.Entries)
			recs = append(recs, core.FromHAR(h, persona, flows.Web)...)
		}
		records += len(recs)
		units = append(units, recs)
		ids = append(ids, core.GuessIdentity(p.name, recs))
	}
	stats := replayPipeline(tr, units)
	for i, p := range plan {
		var res *core.ServiceResult
		analyze += tr.timed("replay", 0, "core.analyze", func() { res = core.NewPipeline().AnalyzeRecords(ids[i], units[i]) })
		var data []byte
		encode += tr.timed("replay", 0, "store.encode", func() { data = store.EncodeResult(res) })
		snapBytes += len(data)
		var perr error
		put += tr.timed("replay", 0, "store.put", func() { _, perr = st.Put(p.name, res) })
		if perr != nil {
			return perr
		}
		if !withExport {
			continue
		}
		var js []byte
		var jerr error
		export += tr.timed("replay", 0, "report.export_json", func() { js, jerr = report.ExportJSON([]*core.ServiceResult{res}) })
		if jerr != nil {
			return jerr
		}
		bodyBytes += len(js)
	}
	n := float64(len(plan))
	r.layer("har.decode_ms", "ms", ms(decode)/n, len(plan))
	r.layer("har.entries", "count", float64(entries)/n, 0)
	stats.report(r, n)
	r.layer("core.analyze_ms", "ms", ms(analyze)/n, len(plan))
	r.layer("core.records", "count", float64(records)/n, 0)
	r.layer("store.encode_ms", "ms", ms(encode)/n, len(plan))
	r.layer("store.put_ms", "ms", ms(put)/n, len(plan))
	r.layer("store.snapshot_kb", "KiB", float64(snapBytes)/n/1024, 0)
	if withExport {
		r.layer("report.export_json_ms", "ms", ms(export)/n, len(plan))
		r.layer("report.body_kb", "KiB", float64(bodyBytes)/n/1024, 0)
	}
	return nil
}

// serverLayers reports what the traced server phase's job records,
// health and spans say about queueing, admission and the store.
func serverLayers(r *result, run *uploadRun, h health, spans []span) {
	r.layer("server.queue_wait_ms", "ms", run.rec.get("queue_wait").percentile(50), run.rec.get("queue_wait").n())
	r.layer("server.job_run_ms", "ms", run.rec.get("job_run").percentile(50), run.rec.get("job_run").n())
	r.layer("server.queue_depth_max", "count", float64(run.maxQueue), 0)
	r.layer("admission.ewma_ms", "ms", h.Admission.EWMAms, 0)
	r.layer("server.shed", "count", float64(h.Admission.Shed), 0)
	puts := &sample{}
	for _, s := range spans {
		if s.Name == "store.put" {
			puts.addMS(float64(s.dur()) / 1e6)
		}
	}
	r.layer("store.put_live_ms", "ms", puts.percentile(50), puts.n())
}

func ingestTraced(e *env) (*result, error) {
	r := &result{}
	dir, err := os.MkdirTemp(e.work, "ingest-")
	if err != nil {
		return nil, err
	}
	set, err := buildUploads(e, dir)
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, err
	}

	// One in-process server takes the warm-up, then alternating untraced
	// and traced slices of the schedule; the difference of their job
	// medians is the tracing overhead, and the per-layer figures come from
	// the traced slices.
	tr := newTracer()
	srv, err := startInProcess(filepath.Join(dir, "data"), filepath.Join(dir, "tmp"), tr)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cl := newClient(e.conns)
	rng := rand.New(rand.NewSource(e.seed))
	tr.paused.Store(true)
	if err := warmUploads(e, cl, srv.base, set, rng); err != nil {
		return nil, err
	}
	traced := &uploadRun{rec: newRecorder(), late: &sample{}}
	var plan, tracedPlan []plannedUpload
	var jobs []string
	overhead, err := interleave(tr, func(i int, on bool) (float64, error) {
		dues := arrivals(rng, ingestRate, e.seconds/(2*overheadPairs))
		pl := planUploads(rng, len(dues), set, fmt.Sprintf("s%d-%d", e.seed, i))
		run, err := uploadPhase(cl, srv.base, set, time.Now().Add(50*time.Millisecond), dues, pl, e.conns, true)
		if err != nil {
			return 0, err
		}
		r.collect(run.rec)
		plan = append(plan, pl...)
		jobs = append(jobs, run.jobs...)
		if on {
			traced.rec.merge(run.rec)
			traced.late.merge(run.late)
			traced.maxQueue = max(traced.maxQueue, run.maxQueue)
			tracedPlan = append(tracedPlan, pl...)
		}
		return run.rec.get("job").percentile(50), nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkReports(r, cl, srv.base, dir, rng, set, plan, jobs); err != nil {
		return nil, err
	}
	h, err := getHealth(cl, srv.base)
	if err != nil {
		return nil, err
	}
	srv.stop()
	r.layer("trace.overhead_ms", "ms", overhead, traced.rec.get("job").n())
	r.layer("gen.late_p99_ms", "ms", traced.late.percentile(99), traced.late.n())
	spans := tr.closed()
	serverLayers(r, traced, h, spans)
	spanLayers(r, spans)
	replay := tracedPlan
	if len(replay) > 12 {
		replay = replay[:12]
	}
	if err := replayUploads(r, tr, dir, set, replay, true); err != nil {
		return nil, err
	}
	r.prop("capture_mb_per_upload", "MB", set.bytes/1e6)
	return r, tr.write(e.traceOut)
}
