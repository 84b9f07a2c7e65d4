// Command auditbench is the repository benchmark. It runs one seeded
// workload against the diffaudit pipeline or a `diffaudit serve` child
// process, checks every output it measures, prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) by name and unit, and ends
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see workloads.json for why each exists, its rate and limit):
//
//	paper-corpus  the paper's pipeline over HAR + pcapng files, no server
//	ingest        open-loop multipart HAR uploads to a fresh server
//	read-mix      open-loop Zipf reads over a store larger than the cache
//
// Run it through run.sh, which builds the server and this program:
//
//	bash auditbench/run.sh --workload read-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement. Samples is the count a timing was read
// from (0 for values that are not sample statistics).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run reports.
type result struct {
	attempted, failed int
	checks            []string // failed output checks; any fails the run
	notes             []string // what a reader of the numbers must know
	e2e               []metric // end-to-end metrics under their workload names
	props             []metric // workload properties
	layers            []metric // per-layer metrics (traced runs)
	slots             map[string]float64
}

func (r *result) add(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *result) prop(name, unit string, v float64) {
	r.props = append(r.props, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) layer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, v, unit, n})
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// collect adds a recorder's counts to the run, its failure reasons to the
// notes and its failed output checks to the checks.
func (r *result) collect(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	r.notes = append(r.notes, rec.errs...)
	for _, w := range rec.wrong {
		r.check(false, "%s", w)
	}
	if more := rec.wrongN - len(rec.wrong); more > 0 {
		r.check(false, "%d more responses failed an output check", more)
	}
}

// timing adds percentile p of s under name and records, as a note, when
// fewer than minBeyond samples lie beyond it.
func (r *result) timing(name string, s *sample, p float64) float64 {
	v := s.percentile(p)
	r.add(name, "ms", v, s.n())
	if p > 50 && !supports(p, s.n()) {
		r.notes = append(r.notes, fmt.Sprintf("%s: only %d samples beyond p%v (n=%d)", name, beyond(p, s.n()), p, s.n()))
	}
	if tp, tv, ok := s.tail(); ok {
		r.notes = append(r.notes, fmt.Sprintf("%s: highest percentile with >=%d samples beyond is p%v = %.3f ms (n=%d)", name, minBeyond, tp, tv, s.n()))
	}
	return v
}

// endToEnd and perLayer are the metrics of the final line in untraced and
// traced runs, with units, as BENCHMARK.json lists them.
var (
	endToEnd = []metric{{Name: "setup_s", Unit: "s"}, {Name: "p50_ms", Unit: "ms"}, {Name: "peak_rss_mb", Unit: "MB"}}
	perLayer = []metric{
		{Name: "har.decode_ms", Unit: "ms"}, {Name: "har.entries", Unit: "count"},
		{Name: "extract.extract_ms", Unit: "ms"}, {Name: "extract.pairs", Unit: "count"},
		{Name: "classifier.classify_ms", Unit: "ms"}, {Name: "classifier.keys", Unit: "count"},
		{Name: "core.analyze_ms", Unit: "ms"}, {Name: "core.records", Unit: "count"},
		{Name: "core.label_reuse_ratio", Unit: "ratio"},
		{Name: "report.export_json_ms", Unit: "ms"}, {Name: "report.body_kb", Unit: "KiB"},
		{Name: "trace.overhead_ms", Unit: "ms"},
	}
)

// env is what every workload gets.
type env struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	work      string // scratch directory of this run, removed at exit
	traceOut  string // where the spans of a traced run are written
	conns     int    // generator goroutines and HTTP connections
}

type workload func(e *env) (*result, error)

var workloads = map[string]workload{
	"paper-corpus": runPaperCorpus,
	"ingest":       runIngest,
	"read-mix":     runReadMix,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-corpus, ingest or read-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	serverBin := flag.String("server-bin", ".bench_build/bin/diffaudit", "diffaudit binary the server workloads start")
	workRoot := flag.String("work", ".bench_build/work", "scratch root inside the checkout")
	emit := flag.String("emit-uploads", "", "write the upload captures of --seed into this directory and exit (the server workloads' set-up runs this)")
	flag.Parse()

	if *emit != "" {
		if err := emitUploads(*emit, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "auditbench: emitting uploads:", err)
			return 1
		}
		return 0
	}

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "auditbench: want --workload paper-corpus|ingest|read-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "auditbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workRoot, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *traceMode == 1,
		serverBin: *serverBin,
		work:      work,
		traceOut:  filepath.Join(*workRoot, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)),
		conns:     runtime.NumCPU(),
	}
	runtime.GOMAXPROCS(e.conns)

	res, err := w(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "auditbench: %s: %v\n", *name, err)
		return 1
	}
	printReport(*name, e, res)
	if len(res.checks) > 0 {
		for _, c := range res.checks {
			fmt.Fprintln(os.Stderr, "auditbench: output check failed:", c)
		}
		return 1
	}
	return 0
}

// printReport prints the detail lines, then the final JSON line.
func printReport(name string, e *env, r *result) {
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	fmt.Printf("# auditbench %s seed=%d seconds=%v %s, %d generator goroutines/connections\n", name, e.seed, e.seconds, mode, e.conns)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Printf("## %s\n", title)
		for _, m := range ms {
			if m.Samples > 0 {
				fmt.Printf("%-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
			} else {
				fmt.Printf("%-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
			}
		}
	}
	section("end-to-end", r.e2e)
	section("workload properties", r.props)
	section("per-layer", r.layers)
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	fmt.Printf("attempted=%d failed=%d failed_ratio=%.6f\n", r.attempted, r.failed, ratio(r.failed, r.attempted))

	want := endToEnd
	have := r.slots
	if e.trace {
		want = perLayer
		have = map[string]float64{}
		for _, m := range r.layers {
			have[m.Name] = m.Value
		}
	}
	out := map[string]any{}
	var missing []string
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	correct := len(r.checks) == 0
	if len(missing) > 0 {
		sort.Strings(missing)
		r.checks = append(r.checks, "metrics not measured: "+strings.Join(missing, ", "))
		correct = false
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": r.failed, "metrics": out})
	fmt.Println(string(line))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// timeSetup runs setup setupReps times and returns the median duration in
// seconds. Each rep but the last is torn down outside the timing; the
// last one's state is what the measured phase runs against, and its
// teardown is returned.
func timeSetup(setup func() (func(), error)) (float64, func(), error) {
	var secs []float64
	var teardown func()
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		td, err := setup()
		if err != nil {
			if td != nil {
				td()
			}
			return 0, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		teardown = td
	}
	return medianOf(secs), teardown, nil
}
