package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// recorder collects latency samples per operation and counts attempts
// and failures across the generator's goroutines.
type recorder struct {
	mu        sync.Mutex
	lat       map[string]*sample
	attempted int
	failed    int
	errs      []string
	wrong     []string // first few failed output checks
	wrongN    int      // every failed output check
}

func newRecorder() *recorder { return &recorder{lat: map[string]*sample{}} }

func (r *recorder) observe(op string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lat[op]
	if s == nil {
		s = &sample{}
		r.lat[op] = s
	}
	s.add(d)
}

// get returns op's sample (empty if never observed). Call after the run.
func (r *recorder) get(op string) *sample {
	if s := r.lat[op]; s != nil {
		return s
	}
	return &sample{}
}

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation and keeps the first few reasons.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// mismatch counts one failed operation whose response broke an output
// check, so it fails the run as well as the operation.
func (r *recorder) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.wrongN++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// merge adds o's samples, counts and reasons to r.
func (r *recorder) merge(o *recorder) {
	for op, s := range o.lat {
		if r.lat[op] == nil {
			r.lat[op] = &sample{}
		}
		r.lat[op].merge(s)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	r.wrong = append(r.wrong, o.wrong...)
	r.wrongN += o.wrongN
}

// openLoop sends len(dues) requests, request i at start+dues[i], from a
// fixed set of worker goroutines. A request whose due time has passed is
// sent at once, so a stall delays later requests and their latency, timed
// by send from the due time, shows it. It returns how late each request
// was sent.
func openLoop(start time.Time, dues []time.Duration, workers int, send func(i int, due time.Time)) *sample {
	var next atomic.Int64
	late := make([]time.Duration, len(dues))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = time.Since(due)
				send(i, due)
			}
		}()
	}
	wg.Wait()
	s := &sample{}
	for _, d := range late {
		s.add(d)
	}
	return s
}

// newClient returns an HTTP client that opens at most conns connections
// and never asks for compressed bodies, so served bytes compare directly.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// response is what the generator keeps of one HTTP exchange.
type response struct {
	status int
	etag   string
	loc    string
	body   []byte
}

// okStatus is a 2xx or 304; anything else, sheds included, is a failure.
func okStatus(code int) bool {
	return (code >= 200 && code < 300) || code == http.StatusNotModified
}

func doGet(cl *http.Client, url, ifNoneMatch string) (response, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return response{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return do(cl, req)
}

func do(cl *http.Client, req *http.Request) (response, error) {
	resp, err := cl.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: reading body: %w", req.Method, req.URL.Path, err)
	}
	return response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), loc: resp.Header.Get("Location"), body: body}, nil
}

// harPart is one capture file of an upload.
type harPart struct {
	field string // persona form field
	data  []byte
}

// uploadBoundary is the fixed multipart boundary of every upload, so the
// capture parts of an upload body can be rendered once and reused.
const uploadBoundary = "auditbench-7f3c9a1e5b2d4c68"

const uploadContentType = "multipart/form-data; boundary=" + uploadBoundary

// nameHead renders the leading "name" field of an upload body.
func nameHead(name string) []byte {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.SetBoundary(uploadBoundary)
	mw.WriteField("name", name)
	return buf.Bytes()
}

// filesTail renders the capture parts and closing boundary of an upload
// body: what follows nameHead, one HAR file per persona.
func filesTail(parts []harPart) ([]byte, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(uploadBoundary); err != nil {
		return nil, err
	}
	if err := mw.WriteField("name", "x"); err != nil {
		return nil, err
	}
	head := buf.Len()
	for _, p := range parts {
		fw, err := mw.CreateFormFile(p.field, p.field+"-web.har")
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(p.data); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes()[head:], nil
}

// postUpload sends one upload (the name head, then a pre-rendered tail)
// and returns the job ID of a 202.
func postUpload(cl *http.Client, base, name string, tail []byte) (string, response, error) {
	head := nameHead(name)
	req, err := http.NewRequest("POST", base+"/v1/audits", io.MultiReader(bytes.NewReader(head), bytes.NewReader(tail)))
	if err != nil {
		return "", response{}, err
	}
	req.ContentLength = int64(len(head) + len(tail))
	req.Header.Set("Content-Type", uploadContentType)
	resp, err := do(cl, req)
	if err != nil || resp.status != http.StatusAccepted {
		return "", resp, err
	}
	return resp.loc[strings.LastIndexByte(resp.loc, '/')+1:], resp, nil
}

// jobView is the part of the job JSON the benchmark reads.
type jobView struct {
	ID           string    `json:"id"`
	State        string    `json:"state"`
	Error        string    `json:"error"`
	SubmittedAt  time.Time `json:"submitted_at"`
	StartedAt    time.Time `json:"started_at"`
	FinishedAt   time.Time `json:"finished_at"`
	SnapshotHash string    `json:"snapshot_hash"`
	SnapError    string    `json:"snapshot_error"`
}

// pollInterval spaces the generator's job-listing and health polls. Job
// latency comes from the server's finished_at stamp, so polling faster
// would only add load the workload does not declare.
const pollInterval = 200 * time.Millisecond

// jobWatch tracks submitted jobs until each is terminal, polling the job
// listing from the oldest job still open so one request covers them all.
type jobWatch struct {
	cl   *http.Client
	base string

	mu    sync.Mutex
	open  map[int]time.Time // job number → due time of its upload
	done  map[int]jobDone
	polls int
}

type jobDone struct {
	view jobView
	due  time.Time
}

func newJobWatch(cl *http.Client, base string) *jobWatch {
	return &jobWatch{cl: cl, base: base, open: map[int]time.Time{}, done: map[int]jobDone{}}
}

func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

func (w *jobWatch) add(id string, due time.Time) {
	w.mu.Lock()
	w.open[jobNum(id)] = due
	w.mu.Unlock()
}

func (w *jobWatch) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.open)
}

// poll makes one listing request and moves terminal jobs to done.
func (w *jobWatch) poll() error {
	w.mu.Lock()
	low := 0
	for n := range w.open {
		if low == 0 || n < low {
			low = n
		}
	}
	w.mu.Unlock()
	if low == 0 {
		return nil
	}
	url := fmt.Sprintf("%s/v1/jobs?cursor=job-%d", w.base, low-1)
	if low == 1 {
		url = w.base + "/v1/jobs"
	}
	resp, err := doGet(w.cl, url, "")
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs: %d", resp.status)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.Unmarshal(resp.body, &list); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.polls++
	for _, j := range list.Jobs {
		n := jobNum(j.ID)
		due, ok := w.open[n]
		if !ok || (j.State != "done" && j.State != "failed" && j.State != "timeout") {
			continue
		}
		delete(w.open, n)
		w.done[n] = jobDone{view: j, due: due}
	}
	return nil
}

// run polls every pollInterval until stop closes and no job is open, or
// until the deadline passes.
func (w *jobWatch) run(stop <-chan struct{}, deadline time.Time) error {
	stopped := false
	for {
		if err := w.poll(); err != nil {
			return err
		}
		if !stopped {
			select {
			case <-stop:
				stopped = true
			default:
			}
		}
		if stopped && w.pending() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d job(s) not terminal by the deadline", w.pending())
		}
		time.Sleep(pollInterval)
	}
}

// health reads the server's /v1/healthz.
type health struct {
	QueueDepth int `json:"queue_depth"`
	Admission  struct {
		EWMAms float64 `json:"ewma_ms"`
		Shed   uint64  `json:"shed"`
	} `json:"admission"`
	Cache struct {
		Bytes     int64  `json:"bytes"`
		Capacity  int64  `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"cache"`
}

func getHealth(cl *http.Client, base string) (health, error) {
	var h health
	resp, err := doGet(cl, base+"/v1/healthz", "")
	if err != nil {
		return h, err
	}
	if resp.status != http.StatusOK {
		return h, fmt.Errorf("GET /v1/healthz: %d", resp.status)
	}
	return h, json.Unmarshal(resp.body, &h)
}

// serverProc is a `diffaudit serve -data-dir` child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives the process's exit once
}

// startServer runs the server binary on a free loopback port with every
// tuning flag at its default, and waits until it answers /v1/healthz.
func startServer(bin, dataDir, tmpDir, logPath string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-addr", addr, "-data-dir", dataDir)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-p.done:
			p.done <- err
			logf.Close()
			return nil, fmt.Errorf("server exited during start-up: %v (log %s)", err, logPath)
		default:
		}
		if resp, err := cl.Get(p.base + "/v1/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cl.CloseIdleConnections()
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("server did not answer /v1/healthz within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (p *serverProc) peakRSSMB() float64 { return peakRSSMB(p.cmd.Process.Pid) }

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 60s. It returns once the process has ended.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// peakRSSMB reads a process's peak resident set size from /proc.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
