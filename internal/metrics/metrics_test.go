package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises the unconfigured path: a nil registry hands
// out nil instruments, and every operation on them must be a no-op, not
// a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := snap.WriteJSONL(io.Discard); err != nil {
		t.Fatalf("empty snapshot JSONL: %v", err)
	}

	sims := ForSim(nil)
	sims.IssueCycles.Inc()
	sims.StackDepth.Observe(2)
	d := ForDMR(nil, 32, 4)
	d.ReplayQDepth.Set(4)
	d.ClusterPairings[7].Inc()
	d.ShuffleLaneUsed[31].Inc()
	ForExec(nil).DivergentBranches.Inc()
	ForRunner(nil).WorkersBusy.Add(1)
}

// TestRegistryRace hammers one shared registry from many goroutines —
// the RunMany scenario where concurrent SMs bump shared counters — and
// checks the totals. Run under -race (CI does).
func TestRegistryRace(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve by name inside the goroutine: lookup must also be
			// concurrency-safe, not just the bump.
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.gauge")
			h := r.Histogram("shared.hist", []int64{10, 100})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 200))
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared.gauge").Value(); got != 0 {
		t.Errorf("gauge settled at %d, want 0", got)
	}
	if high := r.Gauge("shared.gauge").High(); high < 1 || high > workers {
		t.Errorf("gauge high-water %d outside [1,%d]", high, workers)
	}
	if got := r.Histogram("shared.hist", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramBuckets pins the bucket-boundary semantics: bucket i
// counts prev < v <= bounds[i], with a final overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		name   string
		bounds []int64
		obs    []int64
		want   []int64 // per-bucket counts incl. overflow
		sum    int64
	}{
		{
			name:   "boundaries inclusive",
			bounds: []int64{0, 1, 4},
			obs:    []int64{0, 1, 4},
			want:   []int64{1, 1, 1, 0},
			sum:    5,
		},
		{
			name:   "one past each boundary",
			bounds: []int64{0, 1, 4},
			obs:    []int64{1, 2, 5},
			want:   []int64{0, 1, 1, 1},
			sum:    8,
		},
		{
			name:   "negative goes to first bucket",
			bounds: []int64{0, 10},
			obs:    []int64{-3},
			want:   []int64{1, 0, 0},
			sum:    -3,
		},
		{
			name:   "all overflow",
			bounds: []int64{1},
			obs:    []int64{2, 3, 1000},
			want:   []int64{0, 3},
			sum:    1005,
		},
		{
			name:   "no bounds: everything overflows",
			bounds: nil,
			obs:    []int64{1, 2},
			want:   []int64{2},
			sum:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.bounds)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if h.Count() != int64(len(tc.obs)) {
				t.Errorf("count = %d, want %d", h.Count(), len(tc.obs))
			}
			if h.Sum() != tc.sum {
				t.Errorf("sum = %d, want %d", h.Sum(), tc.sum)
			}
			for i, want := range tc.want {
				if got := h.counts[i].Load(); got != want {
					t.Errorf("bucket %d = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestSnapshotJSONL checks that every emitted line parses as JSON with
// the self-describing fields, and that output ordering is stable.
func TestSnapshotJSONL(t *testing.T) {
	r := New()
	r.Counter("b.counter").Add(2)
	r.Counter("a.counter").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h", []int64{1, 10}).Observe(5)

	var b1, b2 strings.Builder
	if err := r.Snapshot().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("JSONL output is not byte-stable across snapshots of unchanged values")
	}

	sc := bufio.NewScanner(strings.NewReader(b1.String()))
	var names []string
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		name, _ := m["name"].(string)
		typ, _ := m["type"].(string)
		if name == "" || typ == "" {
			t.Fatalf("line %q missing name/type", sc.Text())
		}
		names = append(names, typ+":"+name)
	}
	want := []string{"counter:a.counter", "counter:b.counter", "gauge:g", "histogram:h"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("lines = %v, want %v", names, want)
	}
}

// TestSnapshotString smoke-checks the human rendering.
func TestSnapshotString(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(2)
	r.Histogram("h", []int64{1}).Observe(9)
	out := r.Snapshot().String()
	for _, want := range []string{"counter", "c", "3", "gauge", "(high 2)", "histogram", "le=+Inf:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() output missing %q:\n%s", want, out)
		}
	}
}

// TestHandler checks the debug HTTP surface: /debug/metrics serves
// parseable JSONL and /debug/pprof/ responds.
func TestHandler(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/metrics status %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(body)), "\n", 2)[0]), &m); err != nil {
		t.Fatalf("/debug/metrics first line not JSON: %v (%q)", err, body)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
}

// TestWriteFileAndServeDebug checks the commands' two helpers: a
// -metrics-out file holds exactly the snapshot's JSON Lines, and the
// -pprof server answers /debug/metrics on the address it bound.
func TestWriteFileAndServeDebug(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	r.Histogram("h", []int64{1}).Observe(3)
	var want strings.Builder
	if err := r.Snapshot().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := r.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != want.String() {
		t.Errorf("WriteFile wrote %q (%v), want %q", got, err, want.String())
	}
	if err := r.Snapshot().WriteFile(filepath.Join(path, "not-a-dir")); err == nil {
		t.Error("WriteFile under a regular file succeeded")
	}

	addr, err := ServeDebug("localhost:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != want.String() {
		t.Errorf("/debug/metrics = %q (%v), want %q", body, err, want.String())
	}
	if _, err := ServeDebug(addr.String(), r); err == nil {
		t.Error("ServeDebug bound an address already in use")
	}
}

// TestPublishIdempotent checks that re-publishing the same name does
// not panic (expvar.Publish would).
func TestPublishIdempotent(t *testing.T) {
	r := New()
	Publish("warped_metrics_test", r)
	Publish("warped_metrics_test", r) // must not panic
}

// TestTallyPublish: a tally observed then published leaves a histogram
// exactly as direct observation would; a tally from a nil histogram
// discards, and Gauge.Publish keeps the larger high-water mark.
func TestTallyPublish(t *testing.T) {
	bounds := []int64{0, 2, 8}
	direct := New().Histogram("h", bounds)
	viaTally := New().Histogram("h", bounds)
	tally := viaTally.Tally()
	for _, v := range []int64{-1, 0, 1, 2, 3, 8, 9, 100} {
		direct.Observe(v)
		tally.Observe(v)
	}
	viaTally.Publish(&tally)
	viaTally.Publish(new(Tally)) // an empty tally adds nothing
	snap := func(h *Histogram) string {
		r := New()
		r.hists["h"] = h
		return r.Snapshot().String()
	}
	if a, b := snap(direct), snap(viaTally); a != b {
		t.Errorf("published tally differs from direct observation:\n%s\n%s", b, a)
	}

	var nilHist *Histogram
	discard := nilHist.Tally()
	discard.Observe(5)
	nilHist.Publish(&discard)
	if discard.count != 0 {
		t.Error("tally from a nil histogram recorded an observation")
	}

	g := New().Gauge("g")
	g.Publish(3, 9)
	g.Publish(1, 4)
	if g.Value() != 1 || g.High() != 9 {
		t.Errorf("gauge value/high = %d/%d, want 1/9", g.Value(), g.High())
	}
}
