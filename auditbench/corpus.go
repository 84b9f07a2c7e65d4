package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"diffaudit"
	"diffaudit/internal/classifier"
	"diffaudit/internal/core"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/lawaudit"
	"diffaudit/internal/linkability"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

// corpusScale sizes the paper-corpus captures: the share of the paper's
// packet counts the six services are generated at.
const corpusScale = 0.02

// captureFile is one persona's capture of one service on disk.
type captureFile struct {
	path    string
	har     bool
	persona flows.Persona
}

// corpusService is one service's identity and capture files.
type corpusService struct {
	id    core.ServiceIdentity
	files []captureFile
}

// writeCorpus generates the six-service dataset and writes each persona's
// web HAR and mobile pcapng (TLS keys in Decryption Secrets Blocks) under
// dir. The seed picks the capture start time, so seeds differ in bytes
// while the audited flows stay those of the paper's dataset.
func writeCorpus(dir string, seed int64) ([]corpusService, int64, error) {
	ds := synth.Generate(synth.Config{Scale: corpusScale})
	start := synth.UserStart(int(seed))
	var svcs []corpusService
	var total int64
	for _, st := range ds.Services {
		svc := corpusService{id: st.Identity()}
		for _, p := range flows.BuiltinPersonas() {
			base := filepath.Join(dir, fmt.Sprintf("%s-%d", st.Spec.Name, p))
			data, err := json.Marshal(st.EmitHARAt(p, start))
			if err != nil {
				return nil, 0, err
			}
			if err := os.WriteFile(base+".har", data, 0o644); err != nil {
				return nil, 0, err
			}
			total += int64(len(data))
			capt, err := st.EmitPCAPAt(p, start)
			if err != nil {
				return nil, 0, err
			}
			var buf bytes.Buffer
			if err := pcapio.WritePcapng(&buf, capt); err != nil {
				return nil, 0, err
			}
			if err := os.WriteFile(base+".pcapng", buf.Bytes(), 0o644); err != nil {
				return nil, 0, err
			}
			total += int64(buf.Len())
			svc.files = append(svc.files, captureFile{base + ".har", true, p}, captureFile{base + ".pcapng", false, p})
		}
		svcs = append(svcs, svc)
	}
	return svcs, total, nil
}

// openSources opens a service's captures as one streaming source.
func (s corpusService) openSources() (core.RecordSource, func(), error) {
	return openCaptures(s.files)
}

// openCaptures opens capture files as one streaming source, HAR files as
// web traffic and pcapng files with their embedded TLS keys. The returned
// func closes them.
func openCaptures(files []captureFile) (core.RecordSource, func(), error) {
	var srcs []core.RecordSource
	var opened []*core.FileSource
	closeAll := func() {
		for _, f := range opened {
			f.Close()
		}
	}
	for _, c := range files {
		var fs *core.FileSource
		var err error
		if c.har {
			fs, err = core.OpenHARFileSource(c.path, c.persona, flows.Web)
		} else {
			fs, err = core.OpenPCAPFileSource(c.path, "", c.persona)
		}
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		srcs = append(srcs, fs)
		opened = append(opened, fs)
	}
	return core.MultiSource(srcs...), closeAll, nil
}

// decodeHAR stream-decodes a HAR file's entries, as uploads are decoded.
func decodeHAR(data []byte) (*har.HAR, error) {
	h := har.New()
	dec := har.NewStreamDecoder(bytes.NewReader(data))
	for {
		ent, err := dec.Next()
		if err == io.EOF {
			return h, nil
		}
		if err != nil {
			return nil, err
		}
		h.Append(*ent)
	}
}

// artifact is one rendered output of a reproduction round.
type artifact struct {
	name string
	data []byte
}

// reproduce audits every service from its capture files and renders the
// paper's Tables 1-5, Figures 3-5, findings, policy checks and the JSON
// and CSV exports. tr (nil when untraced) gets one span per call, under
// parent.
// It also returns how long each service's audit took.
func reproduce(svcs []corpusService, tr *tracer, trace string, parent int) ([]artifact, []time.Duration, error) {
	results := make([]*core.ServiceResult, len(svcs))
	audit := make([]time.Duration, len(svcs))
	for i, s := range svcs {
		src, closeAll, err := s.openSources()
		if err != nil {
			return nil, nil, err
		}
		var aerr error
		audit[i] = tr.timed(trace, parent, "core.audit_stream", func() {
			results[i], aerr = core.NewPipeline().AnalyzeStream(s.id, src)
		})
		closeAll()
		if aerr != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.id.Name, aerr)
		}
	}
	var arts []artifact
	text := func(span, name string, fn func() string) {
		var out string
		tr.timed(trace, parent, span, func() { out = fn() })
		arts = append(arts, artifact{name, []byte(out)})
	}
	for _, pr := range paperRenders(results) {
		text("report.render", pr.name, pr.render)
	}
	for _, r := range results {
		text("lawaudit.findings", "findings/"+r.Identity.Name, func() string { return joinLines(lawaudit.Audit(r.Identity.Name, r.ByTrace)) })
		text("policy.check", "policy/"+r.Identity.Name, func() string { return joinLines(diffaudit.PolicyViolations(r)) })
	}
	var js []byte
	var jerr error
	tr.timed(trace, parent, "report.export_json", func() { js, jerr = report.ExportJSON(results) })
	if jerr != nil {
		return nil, nil, jerr
	}
	arts = append(arts, artifact{"export.json", js})
	var csv string
	var cerr error
	tr.timed(trace, parent, "report.csv", func() { csv, cerr = report.ExportFlowsCSV(results) })
	if cerr != nil {
		return nil, nil, cerr
	}
	arts = append(arts, artifact{"flows.csv", []byte(csv)})
	return arts, audit, nil
}

// paperRender is one of the paper's tables or figures.
type paperRender struct {
	name   string
	render func() string
}

// paperRenders lists Tables 1-5 and Figures 3-5 over results.
func paperRenders(results []*core.ServiceResult) []paperRender {
	return []paperRender{
		{"table1", func() string { return report.Table1(results) }},
		{"table2", func() string { return report.Table2(results) }},
		{"table3", func() string {
			return report.Table3(classifier.Table3(classifier.GenerateCorpus(classifier.DefaultCorpusOptions())))
		}},
		{"table4", func() string { return report.Table4(results) }},
		{"table5", report.Table5},
		{"figure3", func() string { return report.Figure3(results) }},
		{"figure4", func() string { return report.Figure4(results) }},
		{"figure5", func() string { return report.Figure5(results, 10) }},
	}
}

func joinLines[T fmt.Stringer](xs []T) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(x.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// digests fingerprints each artifact.
func digests(arts []artifact) map[string][32]byte {
	out := make(map[string][32]byte, len(arts))
	for _, a := range arts {
		out[a.name] = sha256.Sum256(a.data)
	}
	return out
}

// compareArtifacts lists every artifact that differs from the reference.
func compareArtifacts(ref map[string][32]byte, arts []artifact) []string {
	var bad []string
	if len(arts) != len(ref) {
		bad = append(bad, fmt.Sprintf("%d artifacts, reference has %d", len(arts), len(ref)))
	}
	for _, a := range arts {
		if want, ok := ref[a.name]; !ok || want != sha256.Sum256(a.data) {
			bad = append(bad, a.name)
		}
	}
	return bad
}

func runPaperCorpus(e *env) (*result, error) {
	r := &result{slots: map[string]float64{}}
	var svcs []corpusService
	var captureBytes int64
	var ref map[string][32]byte
	setup := func() (func(), error) {
		dir, err := os.MkdirTemp(e.work, "corpus-")
		if err != nil {
			return nil, err
		}
		if svcs, captureBytes, err = writeCorpus(dir, e.seed); err != nil {
			return nil, err
		}
		arts, _, err := reproduce(svcs, nil, "", 0)
		if err != nil {
			return nil, err
		}
		ref = digests(arts)
		return func() { os.RemoveAll(dir) }, nil
	}
	setupS, teardown, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	resetPeakRSS()

	// A traced run alternates untraced and traced rounds, so the tracing
	// overhead is not confounded with drift over the run.
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	plain, traced, audit := &sample{}, &sample{}, &sample{}
	var auditTotal time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds; i++ {
		t := tr
		if i%2 == 0 {
			t = nil
		}
		trace := fmt.Sprintf("round-%d", i)
		root := t.begin(trace, 0, "reproduce")
		t0 := time.Now()
		arts, per, err := reproduce(svcs, t, trace, root)
		d := time.Since(t0)
		t.end(root)
		r.attempted++
		if err != nil {
			return nil, err
		}
		if bad := compareArtifacts(ref, arts); len(bad) > 0 {
			r.failed++
			r.check(false, "round %d: artifacts differ from the set-up reference: %s", i, strings.Join(bad, ", "))
			continue
		}
		if t != nil {
			traced.add(d)
			continue
		}
		plain.add(d)
		for _, a := range per {
			audit.add(a)
			auditTotal += a
		}
	}
	mb := float64(captureBytes) / 1e6
	auditMBs := mb * float64(plain.n()) / auditTotal.Seconds()
	r.add("setup_s", "s", setupS, setupReps)
	r.add("audit_mb_s", "MB/s", auditMBs, plain.n())
	p50 := r.timing("reproduce_p50_ms", plain, 50)
	r.timing("service_audit_p50_ms", audit, 50)
	r.timing("service_audit_p90_ms", audit, 90)
	r.add("failed_ratio", "ratio", ratio(r.failed, r.attempted), r.attempted)
	rss := peakRSSMB(os.Getpid())
	r.add("peak_rss_mb", "MB", rss, 0)
	r.prop("capture_mb", "MB", mb)
	r.slots["setup_s"] = setupS
	r.slots["p50_ms"] = p50
	r.slots["peak_rss_mb"] = rss

	recs, err := corpusRecords(svcs)
	if err != nil {
		return nil, err
	}
	st := replayPipeline(nil, recs)
	r.prop("core.label_reuse_ratio", "ratio", 1-float64(st.keys)/float64(max(st.pairs, 1)))
	if !e.trace {
		return r, nil
	}

	r.layer("trace.overhead_ms", "ms", traced.percentile(50)-p50, traced.n())
	spanLayers(r, tr.closed())
	if err := corpusLayers(r, tr, svcs); err != nil {
		return nil, err
	}
	return r, tr.write(e.traceOut)
}

// spanLayers reports per-name total and self time of the traced spans.
func spanLayers(r *result, spans []span) {
	total, self, count := byName(spans)
	var names []string
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.notes = append(r.notes, fmt.Sprintf("span %-24s calls=%-6d total=%.3f ms self=%.3f ms", n, count[n], total[n], self[n]))
	}
}

// corpusRecords drains each service's captures into records.
func corpusRecords(svcs []corpusService) ([][]core.RequestRecord, error) {
	out := make([][]core.RequestRecord, len(svcs))
	for i, s := range svcs {
		src, closeAll, err := s.openSources()
		if err != nil {
			return nil, err
		}
		err = drain(src, func(rec core.RequestRecord) { out[i] = append(out[i], rec) })
		closeAll()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func requestView(rec core.RequestRecord) extract.RequestView {
	return extract.RequestView{Method: rec.Method, URL: rec.URL, Headers: rec.Headers, Cookies: rec.Cookies, BodyMIME: rec.BodyMIME, Body: rec.Body}
}

func drain(src core.RecordSource, fn func(core.RequestRecord)) error {
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(rec)
	}
}

// corpusLayers replays the corpus through each layer's public call, one
// layer at a time, and reports each layer's time and work.
func corpusLayers(r *result, tr *tracer, svcs []corpusService) error {
	const trace = "replay"
	var harMS, netMS, fromPCAPMS float64
	var entries, packets, tlsStreams, decrypted int
	recsBySvc := make([][]core.RequestRecord, len(svcs))
	for i, s := range svcs {
		for _, c := range s.files {
			data, err := os.ReadFile(c.path)
			if err != nil {
				return err
			}
			if c.har {
				var h *har.HAR
				var derr error
				d := tr.timed(trace, 0, "har.decode", func() { h, derr = decodeHAR(data) })
				if derr != nil {
					return derr
				}
				entries += len(h.Log.Entries)
				recs := core.FromHAR(h, c.persona, flows.Web)
				harMS += ms(d)
				recsBySvc[i] = append(recsBySvc[i], recs...)
				continue
			}
			var capt *pcapio.Capture
			var rerr error
			netMS += ms(tr.timed(trace, 0, "netcap.read", func() { capt, rerr = pcapio.Read(data) }))
			if rerr != nil {
				return rerr
			}
			packets += len(capt.Packets)
			var recs []core.RequestRecord
			var stats core.PCAPStats
			fromPCAPMS += ms(tr.timed(trace, 0, "core.from_pcap", func() { recs, stats, rerr = core.FromPCAP(capt, nil, c.persona) }))
			if rerr != nil {
				return rerr
			}
			tlsStreams += stats.TLSStreams
			decrypted += stats.DecryptedStreams
			recsBySvc[i] = append(recsBySvc[i], recs...)
		}
	}
	r.layer("har.decode_ms", "ms", harMS, 0)
	r.layer("har.entries", "count", float64(entries), 0)
	r.layer("netcap.read_ms", "ms", netMS, 0)
	r.layer("netcap.packets", "count", float64(packets), 0)
	r.layer("core.from_pcap_ms", "ms", fromPCAPMS, 0)
	r.layer("netcap.decrypted_ratio", "ratio", ratio(decrypted, tlsStreams), tlsStreams)

	replayPipeline(tr, recsBySvc).report(r, 1)
	records := 0
	for _, recs := range recsBySvc {
		records += len(recs)
	}

	results := make([]*core.ServiceResult, len(svcs))
	var analyzeMS float64
	for i, s := range svcs {
		analyzeMS += ms(tr.timed(trace, 0, "core.analyze", func() { results[i] = core.NewPipeline().AnalyzeRecords(s.id, recsBySvc[i]) }))
	}
	r.layer("core.analyze_ms", "ms", analyzeMS, 0)
	r.layer("core.records", "count", float64(records), 0)

	var linkMS, findMS, polMS float64
	for _, res := range results {
		linkMS += ms(tr.timed(trace, 0, "linkability.index", func() {
			for _, set := range res.ByTrace {
				linkability.NewIndex(set)
			}
		}))
		findMS += ms(tr.timed(trace, 0, "lawaudit.findings", func() { lawaudit.Audit(res.Identity.Name, res.ByTrace) }))
		polMS += ms(tr.timed(trace, 0, "policy.check", func() { diffaudit.PolicyViolations(res) }))
	}
	r.layer("linkability.index_ms", "ms", linkMS, 0)
	r.layer("lawaudit.findings_ms", "ms", findMS, 0)
	r.layer("policy.check_ms", "ms", polMS, 0)
	renderMS := ms(tr.timed(trace, 0, "report.render", func() {
		for _, pr := range paperRenders(results) {
			pr.render()
		}
	}))
	r.layer("report.render_ms", "ms", renderMS, 0)
	var js []byte
	var err error
	jsMS := ms(tr.timed(trace, 0, "report.export_json", func() { js, err = report.ExportJSON(results) }))
	if err != nil {
		return err
	}
	csvMS := ms(tr.timed(trace, 0, "report.csv", func() { _, err = report.ExportFlowsCSV(results) }))
	if err != nil {
		return err
	}
	r.layer("report.export_json_ms", "ms", jsMS, 0)
	r.layer("report.csv_ms", "ms", csvMS, 0)
	r.layer("report.body_kb", "KiB", float64(len(js))/1024, 0)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// resetPeakRSS restarts the kernel's peak-RSS watermark for this process,
// so peak_rss_mb covers the measured phase and not set-up.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) }
