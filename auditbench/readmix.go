package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/services"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

const (
	// popSize is how many distinct snapshots read-mix stores before the
	// server starts, 499 audits of each service: about 1.4 times the
	// default 64 MiB decoded cache, so reads both hit and miss.
	popSize = 2994
	// popScale sizes the six audits the population is varied from.
	popScale = 0.02
	// readRate is the offered read rate, and trickleRate the upload rate
	// beside it. Their 100:1 ratio is an assumption, not measured traffic.
	readRate    = 50.0
	trickleRate = 0.5
	// readLimitMS is the latency limit on get_p95_ms at readRate.
	readLimitMS = 250.0
	// zipfS skews reads over the population. It is an assumption taken
	// from web object popularity, not measured audit traffic: Breslau et
	// al., "Web Caching and Zipf-like Distributions: Evidence and
	// Implications" (INFOCOM 1999), fit exponents of 0.64-0.83 to six
	// web proxy traces.
	zipfS = 0.8
	// bodiesChecked is how many served snapshot and report bodies are
	// compared byte for byte with ExportJSON of the stored result.
	bodiesChecked = 4
)

// Read operations. Each read draws one with equal shares: no measured
// mix of audit-server reads exists to weight them by.
const (
	opSnapshot   = iota // GET /v1/snapshots/{hash}
	opReport            // GET /v1/jobs/{id}/report.json
	opCSV               // GET /v1/jobs/{id}/report.csv
	opStale             // GET /v1/snapshots/{hash}, If-None-Match of another snapshot
	opRevalidate        // GET with the matching If-None-Match
	opDiff              // GET /v1/diff, every third persona-filtered
	numOps
)

// population is the stored snapshot set reads draw from.
type population struct {
	bases []*core.ServiceResult
	hash  []string // content hash per snapshot index
	bytes int64    // total encoded size
}

// variant is snapshot i of the population: the audit of service i%6 with
// a seeded ~5% of its flows dropped and its packet count shifted, as if
// the service had been audited again later.
func (p *population) variant(seed int64, i int) *core.ServiceResult {
	base := p.bases[i%len(p.bases)]
	v := *base
	v.Packets = base.Packets + i
	v.ByTrace = make(map[flows.Persona]*flows.Set, len(base.ByTrace))
	for persona, set := range base.ByTrace {
		out := flows.NewSetSized(set.Len())
		set.Range(func(key uint64, m flows.PlatformMask) {
			h := fnv.New64a()
			var buf [24]byte
			binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
			binary.LittleEndian.PutUint64(buf[8:], uint64(i))
			binary.LittleEndian.PutUint64(buf[16:], key)
			h.Write(buf[:])
			if h.Sum64()%20 != 0 {
				c, d := flows.SplitFlowKey(key)
				out.AddMask(c, d, m)
			}
		})
		v.ByTrace[persona] = out
	}
	return &v
}

// writePopulation audits the six services and stores popSize variants
// through the public store API, job IDs job-1..job-N.
func writePopulation(dataDir string, seed int64) (*population, error) {
	ds := synth.Generate(synth.Config{Scale: popScale})
	pop := &population{}
	for _, st := range ds.Services {
		pop.bases = append(pop.bases, core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records()))
	}
	st, err := store.OpenFSStore(dataDir)
	if err != nil {
		return nil, err
	}
	// Concurrent writers overlap the per-snapshot fsyncs; the snapshot
	// for index i still gets job ID job-(i+1).
	const writers = 4
	metas := make([]store.Meta, popSize)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < popSize; i += writers {
				metas[i], errs[w] = st.Put(fmt.Sprintf("job-%d", i+1), pop.variant(seed, i))
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for i, meta := range metas {
		if seen[meta.Hash] {
			return nil, fmt.Errorf("snapshot %d repeats the content of an earlier one", i)
		}
		seen[meta.Hash] = true
		pop.hash = append(pop.hash, meta.Hash)
		pop.bytes += int64(meta.Bytes)
	}
	return pop, nil
}

// plannedRead is one scheduled read.
type plannedRead struct {
	op    int
	key   int // snapshot index
	other int // second snapshot (diff target, stale validator)
	only  bool
}

// planReads draws each read's operation and its Zipf-skewed key. Rank r
// of the Zipf law is an audit of service r%6, so every seed spreads
// popularity over the six services alike, while a seeded permutation
// picks which of the service's audits it is.
func planReads(rng *rand.Rand, n int) []plannedRead {
	nsvc := len(services.All())
	perm := rng.Perm(popSize / nsvc)
	keys := zipfDraws(rng, zipfS, popSize, n)
	out := make([]plannedRead, n)
	diffs := 0
	for i := range out {
		op := rng.Intn(numOps)
		k := nsvc*perm[keys[i]/nsvc] + keys[i]%nsvc
		pr := plannedRead{op: op, key: k}
		switch op {
		case opDiff:
			// Same service, a few audits later (or earlier).
			pr.other = (k + 6*(1+rng.Intn(8))) % popSize
			pr.only = diffs%3 == 0
			diffs++
		case opStale:
			pr.other = (k + 1 + rng.Intn(popSize-1)) % popSize
		}
		out[i] = pr
	}
	return out
}

// request renders a planned read as a path, an If-None-Match header, the
// status and ETag the server must answer with, and its sample name.
func (p *population) request(pr plannedRead) (path, inm string, status int, etag, sample string) {
	h := p.hash[pr.key]
	job := fmt.Sprintf("job-%d", pr.key+1)
	switch pr.op {
	case opSnapshot:
		return "/v1/snapshots/" + h, "", 200, `"` + h + `"`, "get"
	case opReport:
		return "/v1/jobs/" + job + "/report.json", "", 200, `"` + h + `"`, "get"
	case opCSV:
		return "/v1/jobs/" + job + "/report.csv", "", 200, `"` + h + `+csv"`, "get"
	case opStale:
		return "/v1/snapshots/" + h, `"` + p.hash[pr.other] + `"`, 200, `"` + h + `"`, "get"
	case opRevalidate:
		if pr.key%2 == 0 {
			return "/v1/snapshots/" + h, `"` + h + `"`, 304, `"` + h + `"`, "revalidate"
		}
		return "/v1/jobs/" + job + "/report.json", `"` + h + `"`, 304, `"` + h + `"`, "revalidate"
	default:
		to := p.hash[pr.other]
		path = "/v1/diff?from=" + h + "&to=" + to
		etag = `"` + h + "-" + to + "+json"
		if pr.only {
			path += "&personas=child"
			etag += ";" + flows.Child.Info().Name
		}
		return path, "", 200, etag + `"`, "diff"
	}
}

// readOne sends one planned read. It records the latency from due, a
// failure, or, when the status or ETag differs from the one the stored
// population makes due, a failed output check. It returns the body of a
// read that passed.
func readOne(cl *http.Client, base string, pop *population, pr plannedRead, rec *recorder, due time.Time) ([]byte, bool) {
	path, inm, wantStatus, wantETag, name := pop.request(pr)
	rec.attempt()
	resp, err := doGet(cl, base+path, inm)
	d := time.Since(due)
	switch {
	case err != nil:
		rec.fail("GET %s: %v", path, err)
	case !okStatus(resp.status):
		rec.fail("GET %s: HTTP %d %s", path, resp.status, excerpt(resp.body))
	case resp.status != wantStatus || resp.etag != wantETag:
		rec.mismatch("GET %s (If-None-Match %s): HTTP %d ETag %s, want %d ETag %s", path, inm, resp.status, resp.etag, wantStatus, wantETag)
	default:
		rec.observe(name, d)
		return resp.body, true
	}
	return nil, false
}

// warmCache fills the server's decoded-snapshot cache before timing, as
// a long-running server's would be: unfiltered diffs over a seeded sweep
// of the population decode and cache two snapshots each, until the cache
// is full. It returns the share of the cache filled.
func warmCache(cl *http.Client, base string, pop *population, rng *rand.Rand, conns int) (float64, error) {
	order := rng.Perm(popSize)
	h, err := getHealth(cl, base)
	if err != nil {
		return 0, err
	}
	capacity := h.Cache.Capacity
	var filled int64
	var mu sync.Mutex
	var firstErr error
	const batch = 64
	for at := 0; at < len(order) && filled < capacity; at += batch {
		var wg sync.WaitGroup
		next := at
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= at+batch || i >= len(order) {
						return
					}
					k := order[i]
					resp, err := doGet(cl, base+"/v1/diff?from="+pop.hash[k]+"&to="+pop.hash[(k+6)%popSize], "")
					if err == nil && resp.status != http.StatusOK {
						err = fmt.Errorf("warm-up diff: HTTP %d %s", resp.status, excerpt(resp.body))
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		if h, err = getHealth(cl, base); err != nil {
			return 0, err
		}
		filled = h.Cache.Bytes
	}
	return float64(filled) / float64(capacity), nil
}

// readRun is what one open-loop read phase observed.
type readRun struct {
	rec     *recorder
	late    *sample
	bodies  map[int][]byte // served snapshot/report bodies kept for the check
	uploads *uploadRun
	h0, h1  health
}

// cacheDelta is how the decoded-snapshot cache's counters moved.
type cacheDelta struct{ hits, misses, coalesced, evictions uint64 }

func (run *readRun) cache() cacheDelta {
	c0, c1 := run.h0.Cache, run.h1.Cache
	return cacheDelta{c1.Hits - c0.Hits, c1.Misses - c0.Misses, c1.Coalesced - c0.Coalesced, c1.Evictions - c0.Evictions}
}

func (c *cacheDelta) add(o cacheDelta) {
	c.hits += o.hits
	c.misses += o.misses
	c.coalesced += o.coalesced
	c.evictions += o.evictions
}

// report passes the cache metrics to put.
func (c cacheDelta) report(put func(name, unit string, v float64)) {
	put("cache.hit_ratio", "ratio", float64(c.hits)/float64(max(c.hits+c.misses, 1)))
	put("cache.coalesced", "count", float64(c.coalesced))
	put("cache.evictions", "count", float64(c.evictions))
}

// readPhase sends dur of planned reads from conns goroutines and, beside
// them, the trickle uploads from one more (sampling the job queue depth
// with sampleQueue).
func readPhase(cl *http.Client, base string, pop *population, set *uploadSet, rng *rand.Rand, dur time.Duration, conns int, tag string, sampleQueue bool) (*readRun, []plannedRead, []plannedUpload, error) {
	dues := arrivals(rng, readRate, dur)
	plan := planReads(rng, len(dues))
	upDues := arrivals(rng, trickleRate, dur)
	upPlan := planUploads(rng, len(upDues), set, tag+"-trickle")

	run := &readRun{rec: newRecorder(), bodies: map[int][]byte{}}
	var err error
	if run.h0, err = getHealth(cl, base); err != nil {
		return nil, nil, nil, err
	}
	var mu sync.Mutex
	start := time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	var upErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.uploads, upErr = uploadPhase(cl, base, set, start, upDues, upPlan, 1, sampleQueue)
	}()
	run.late = openLoop(start, dues, conns, func(i int, due time.Time) {
		pr := plan[i]
		body, ok := readOne(cl, base, pop, pr, run.rec, due)
		if ok && (pr.op == opSnapshot || pr.op == opReport) {
			mu.Lock()
			if _, ok := run.bodies[pr.key]; !ok && len(run.bodies) < bodiesChecked {
				run.bodies[pr.key] = body
			}
			mu.Unlock()
		}
	})
	wg.Wait()
	if upErr != nil {
		return nil, nil, nil, upErr
	}
	if run.h1, err = getHealth(cl, base); err != nil {
		return nil, nil, nil, err
	}
	return run, plan, upPlan, nil
}

// checkBodies compares kept bodies with ExportJSON of the stored result.
func checkBodies(r *result, pop *population, seed int64, bodies map[int][]byte) error {
	r.check(len(bodies) > 0, "no snapshot or report body was kept to check")
	for k, body := range bodies {
		want, err := report.ExportJSON([]*core.ServiceResult{pop.variant(seed, k)})
		if err != nil {
			return err
		}
		r.check(bytes.Equal(body, want), "body of snapshot %d (%s) differs from ExportJSON of the stored result (%d vs %d bytes)", k, pop.hash[k][:12], len(body), len(want))
	}
	return nil
}

func runReadMix(e *env) (*result, error) {
	if e.trace {
		return readMixTraced(e)
	}
	r := &result{slots: map[string]float64{}}
	var pop *population
	var set *uploadSet
	var srv *serverProc
	setup := func() (func(), error) {
		dir, err := os.MkdirTemp(e.work, "readmix-")
		if err != nil {
			return nil, err
		}
		teardown := func() { os.RemoveAll(dir) }
		if set, err = buildUploads(e, dir); err != nil {
			return teardown, err
		}
		if pop, err = writePopulation(filepath.Join(dir, "data"), e.seed); err != nil {
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
	warmStart := time.Now()
	fill, err := warmCache(cl, srv.base, pop, rng, e.conns)
	if err != nil {
		return nil, err
	}
	r.prop("warmup_s", "s", time.Since(warmStart).Seconds())
	r.prop("cache_fill_after_warmup", "ratio", fill)
	run, plan, _, err := readPhase(cl, srv.base, pop, set, rng, e.seconds, e.conns, fmt.Sprintf("s%d", e.seed), false)
	if err != nil {
		return nil, err
	}
	if err := checkBodies(r, pop, e.seed, run.bodies); err != nil {
		return nil, err
	}
	rss := srv.peakRSSMB()
	readMixMetrics(r, e, run, plan, pop)
	r.add("setup_s", "s", setupS, setupReps)
	r.add("peak_rss_mb", "MB", rss, 0)
	r.slots["setup_s"] = setupS
	r.slots["peak_rss_mb"] = rss
	return r, nil
}

// readMixMetrics reports a read phase's end-to-end metrics and workload
// properties.
func readMixMetrics(r *result, e *env, run *readRun, plan []plannedRead, pop *population) {
	up := run.uploads
	r.collect(run.rec)
	r.collect(up.rec)
	get := run.rec.get("get")
	r.timing("upload_p50_ms", up.rec.get("upload"), 50)
	r.slots["p50_ms"] = r.timing("get_p50_ms", get, 50)
	r.timing("get_p90_ms", get, 90)
	r.timing("get_p95_ms", get, 95)
	r.timing("get_p99_ms", get, 99)
	r.timing("revalidate_p50_ms", run.rec.get("revalidate"), 50)
	r.timing("diff_p50_ms", run.rec.get("diff"), 50)
	r.timing("diff_p90_ms", run.rec.get("diff"), 90)
	r.timing("diff_p95_ms", run.rec.get("diff"), 95)
	r.add("failed_ratio", "ratio", ratio(r.failed, r.attempted), r.attempted)
	if v := get.percentile(95); v > readLimitMS {
		r.notes = append(r.notes, fmt.Sprintf("get_p95_ms %.1f exceeds the %.0f ms limit at %.0f reads/s", v, readLimitMS, readRate))
	}

	var keys []int
	cond := 0
	for _, pr := range plan {
		keys = append(keys, pr.key)
		if pr.op == opRevalidate || pr.op == opStale {
			cond++
		}
	}
	r.prop("offered_rate", "1/s", readRate)
	r.prop("get_p95_limit_ms", "ms", readLimitMS)
	r.prop("population", "count", float64(len(pop.hash)))
	r.prop("population_to_cache", "ratio", float64(pop.bytes)/float64(run.h1.Cache.Capacity))
	r.prop("repeat_share", "ratio", repeatShare(keys))
	r.prop("conditional_share", "ratio", ratio(cond, len(plan)))
	r.prop("gen.late_p99_ms", "ms", run.late.percentile(99))
	r.prop("gen.polls_per_s", "1/s", float64(up.polls)/e.seconds.Seconds())
	run.cache().report(r.prop)
}

func readMixTraced(e *env) (*result, error) {
	r := &result{}
	dir, err := os.MkdirTemp(e.work, "readmix-")
	if err != nil {
		return nil, err
	}
	set, err := buildUploads(e, dir)
	if err != nil {
		return nil, err
	}
	dataDir, tmpDir := filepath.Join(dir, "data"), filepath.Join(dir, "tmp")
	pop, err := writePopulation(dataDir, e.seed)
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(tmpDir, 0o755); err != nil {
		return nil, err
	}

	// One in-process server over the population serves the warm-up, then
	// alternating untraced and traced slices of the schedule; the
	// difference of their GET medians is the tracing overhead, and the
	// per-layer figures come from the traced slices.
	tr := newTracer()
	srv, err := startInProcess(dataDir, tmpDir, tr)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cl := newClient(e.conns)
	rng := rand.New(rand.NewSource(e.seed))
	tr.paused.Store(true)
	if _, err := warmCache(cl, srv.base, pop, rng, e.conns); err != nil {
		return nil, err
	}
	reads, uploads, late := newRecorder(), &uploadRun{rec: newRecorder()}, &sample{}
	bodies := map[int][]byte{}
	var cache cacheDelta
	var plan []plannedRead
	var upPlan []plannedUpload
	overhead, err := interleave(tr, func(i int, traced bool) (float64, error) {
		run, pl, upl, err := readPhase(cl, srv.base, pop, set, rng, e.seconds/(2*overheadPairs), e.conns, fmt.Sprintf("s%d-%d", e.seed, i), true)
		if err != nil {
			return 0, err
		}
		r.collect(run.rec)
		r.collect(run.uploads.rec)
		for k, b := range run.bodies {
			if len(bodies) < bodiesChecked {
				bodies[k] = b
			}
		}
		if traced {
			reads.merge(run.rec)
			uploads.rec.merge(run.uploads.rec)
			uploads.maxQueue = max(uploads.maxQueue, run.uploads.maxQueue)
			late.merge(run.late)
			cache.add(run.cache())
			plan = append(plan, pl...)
			upPlan = append(upPlan, upl...)
		}
		return run.rec.get("get").percentile(50), nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkBodies(r, pop, e.seed, bodies); err != nil {
		return nil, err
	}
	h, err := getHealth(cl, srv.base)
	if err != nil {
		return nil, err
	}
	srv.stop()
	r.layer("trace.overhead_ms", "ms", overhead, reads.get("get").n())
	r.layer("gen.late_p99_ms", "ms", late.percentile(99), late.n())
	cache.report(func(name, unit string, v float64) { r.layer(name, unit, v, 0) })
	spans := tr.closed()
	r.layer("store.list_calls_per_req", "count", listCallsPerRead(spans), 0)
	serverLayers(r, uploads, h, spans)
	spanLayers(r, spans)

	if len(upPlan) == 0 {
		upPlan = planUploads(rand.New(rand.NewSource(e.seed)), 1, set, fmt.Sprintf("s%d-replay", e.seed))
	}
	if err := replayUploads(r, tr, dir, set, upPlan, false); err != nil {
		return nil, err
	}
	if err := replayReads(r, tr, dataDir, pop, e.seed, plan); err != nil {
		return nil, err
	}
	return r, tr.write(e.traceOut)
}

// listCallsPerRead is the mean number of Store.List calls a read request
// made in the traced phase.
func listCallsPerRead(spans []span) float64 {
	roots := map[int]bool{}
	for _, s := range spans {
		switch s.Name {
		case "http.snapshot", "http.snapshot_conditional", "http.report_json", "http.report_conditional", "http.report_csv", "http.diff":
			roots[s.ID] = true
		}
	}
	lists := 0
	for _, s := range spans {
		if s.Name == "store.list" && roots[s.Parent] {
			lists++
		}
	}
	return float64(lists) / float64(max(len(roots), 1))
}

// replayReads replays the first reads of the schedule one layer at a time,
// with no cache: resolve (List + Resolve), open a view, decode, then the
// export, CSV or diff the endpoint renders. Values are means per call.
func replayReads(r *result, tr *tracer, dataDir string, pop *population, seed int64, plan []plannedRead) error {
	st, err := store.OpenFSStore(dataDir)
	if err != nil {
		return err
	}
	if len(plan) > 400 {
		plan = plan[:400]
	}
	var resolve, view, decode, export, csv, diff, diffJSON sample
	var body float64
	timed := func(s *sample, name string, fn func()) { s.add(tr.timed("replay", 0, name, fn)) }
	open := func(m store.Meta, only []string) (*core.ServiceResult, error) {
		var v *store.SnapshotView
		var err error
		timed(&view, "store.view", func() { v, err = st.View(strconv.FormatUint(m.Seq, 10)) })
		if err != nil {
			return nil, err
		}
		defer v.Close()
		var res *core.ServiceResult
		timed(&decode, "store.decode", func() { res, err = v.PartialResult(only) })
		return res, err
	}
	resolveRef := func(ref string) (store.Meta, error) {
		var m store.Meta
		var err error
		timed(&resolve, "store.resolve", func() {
			var metas []store.Meta
			if metas, err = st.List(); err == nil {
				m, err = store.Resolve(metas, ref)
			}
		})
		return m, err
	}
	for _, pr := range plan {
		ref := pop.hash[pr.key]
		if pr.op == opReport || pr.op == opCSV || (pr.op == opRevalidate && pr.key%2 == 1) {
			ref = fmt.Sprintf("job-%d", pr.key+1)
		}
		meta, err := resolveRef(ref)
		if err != nil {
			return err
		}
		switch pr.op {
		case opRevalidate:
		case opCSV:
			res, err := open(meta, nil)
			if err != nil {
				return err
			}
			timed(&csv, "report.csv", func() { _, err = report.AppendFlowsCSV(nil, []*core.ServiceResult{res}) })
			if err != nil {
				return err
			}
		case opDiff:
			to, err := resolveRef(pop.hash[pr.other])
			if err != nil {
				return err
			}
			var only []string
			var onlySet map[flows.Persona]bool
			if pr.only {
				only, onlySet = []string{flows.Child.Info().Name}, map[flows.Persona]bool{flows.Child: true}
			}
			a, err := open(meta, only)
			if err != nil {
				return err
			}
			b, err := open(to, only)
			if err != nil {
				return err
			}
			var d core.LongitudinalDiff
			timed(&diff, "core.diff", func() { d = core.LongitudinalFiltered(a, b, onlySet) })
			timed(&diffJSON, "report.diff_json", func() { _, err = report.ExportDiffJSON(d) })
			if err != nil {
				return err
			}
		default:
			res, err := open(meta, nil)
			if err != nil {
				return err
			}
			var js []byte
			timed(&export, "report.export_json", func() { js, err = report.ExportJSON([]*core.ServiceResult{res}) })
			if err != nil {
				return err
			}
			body += float64(len(js))
		}
	}
	r.layer("store.resolve_ms", "ms", resolve.mean(), resolve.n())
	r.layer("store.view_ms", "ms", view.mean(), view.n())
	r.layer("store.decode_ms", "ms", decode.mean(), decode.n())
	r.layer("report.export_json_ms", "ms", export.mean(), export.n())
	r.layer("report.body_kb", "KiB", body/float64(max(export.n(), 1))/1024, 0)
	r.layer("report.csv_ms", "ms", csv.mean(), csv.n())
	r.layer("core.diff_ms", "ms", diff.mean(), diff.n())
	r.layer("report.diff_json_ms", "ms", diffJSON.mean(), diffJSON.n())
	return nil
}
