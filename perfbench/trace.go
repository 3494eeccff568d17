package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span buffer. A hot-path traced run
// produces about twenty thousand spans a second; past the bound new
// spans are counted as dropped and the layer table is computed from
// the spans kept.
const maxSpans = 200_000

// span is one timed call at a layer boundary the benchmark owns.
type span struct {
	id, parent int64
	name       string // route or call, e.g. "submit", "status", "sim.New", "Build"
	layer      string // "client", "cluster", "cluster.client", "service", "experiments", "runner", "sim", "kernels"
	job        string // content-addressed job ID; empty outside jobs
	start, end time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one branch per boundary.
type recorder struct {
	epoch   time.Time
	next    atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; done records it.
type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) open(layer, name, job string, parent int64) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{r: r, s: span{id: r.next.Add(1), parent: parent, layer: layer,
		name: name, job: job, start: time.Since(r.epoch)}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.id
}

func (o *openSpan) done() {
	if o == nil {
		return
	}
	o.s.end = time.Since(o.r.epoch)
	o.r.mu.Lock()
	if len(o.r.spans) < maxSpans {
		o.r.spans = append(o.r.spans, o.s)
	} else {
		o.r.dropped.Add(1)
	}
	o.r.mu.Unlock()
}

// snapshot returns the kept spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanCtxKey carries the current span ID and job through a context.
type spanCtxKey struct{}

type spanCtx struct {
	id  int64
	job string
}

func withSpan(ctx context.Context, id int64, job string) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{id, job})
}

// Headers propagating a span across an HTTP hop.
const (
	hdrParent = "X-Perfbench-Parent"
	hdrJob    = "X-Perfbench-Job"
)

// route names an API request by method and path pattern.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/result"):
		return "result"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		return "status"
	default:
		return strings.ToLower(method) + " " + path
	}
}

// pathJob extracts the job ID from /v1/jobs/{id}[/result].
func pathJob(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// bodyJob extracts the "id" field of a JSON submit answer.
func bodyJob(body []byte) string {
	var v struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &v) != nil {
		return ""
	}
	return v.ID
}

// tracedHandler records one span per request served by h, under layer.
// The parent span and job arrive in headers from a traced client.
func (r *recorder) tracedHandler(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
		job := req.Header.Get(hdrJob)
		if job == "" {
			job = pathJob(req.URL.Path)
		}
		o := r.open(layer, route(req.Method, req.URL.Path), job, parent)
		cw := &captureWriter{ResponseWriter: w, keep: job == ""}
		h.ServeHTTP(cw, req)
		if o.s.job == "" {
			o.s.job = bodyJob(cw.body.Bytes())
		}
		o.done()
	})
}

// captureWriter keeps a copy of a small response body so the span can
// learn the job ID a submit answer assigns.
type captureWriter struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.keep && c.body.Len() < 4096 {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

// tracedTransport records one span per HTTP exchange, from sending the
// request until the response body is closed, and propagates the span
// to the server in headers.
type tracedTransport struct {
	rec   *recorder
	layer string
	base  http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, _ := req.Context().Value(spanCtxKey{}).(spanCtx)
	job := sc.job
	if job == "" {
		job = pathJob(req.URL.Path)
	}
	o := t.rec.open(t.layer, route(req.Method, req.URL.Path), job, sc.id)
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, strconv.FormatInt(o.id(), 10))
	if job != "" {
		req.Header.Set(hdrJob, job)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		o.done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, o: o, keep: job == ""}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	o    *openSpan
	keep bool
	buf  bytes.Buffer
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep && b.buf.Len() < 4096 {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		if b.o.s.job == "" {
			b.o.s.job = bodyJob(b.buf.Bytes())
		}
		b.o.done()
	})
	return err
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, cur := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, cur), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON (Perfetto
// opens it). Each layer is a process and each job a thread, so the
// spans of one job line up across client, coordinator and worker.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	pids, tids := map[string]int{}, map[string]int{}
	idOf := func(m map[string]int, k string) int {
		if v, ok := m[k]; ok {
			return v
		}
		m[k] = len(m) + 1
		return m[k]
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":`)
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := event{Name: s.name, Cat: s.layer, Ph: "X", TS: float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3, PID: idOf(pids, s.layer), TID: idOf(tids, s.job),
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	for layer, pid := range pids {
		w.WriteByte(',')
		if err := enc.Encode(event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": layer}}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
