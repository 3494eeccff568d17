package service_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warped/client"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/stats"
	"warped/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreColdStart: a fresh daemon over an existing store directory
// answers a previously-computed job from disk — no simulation, same
// stats. This is the durable half of the content-addressed cache.
func TestStoreColdStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := &client.JobSpec{Source: tinySrc}

	// First life: compute and persist.
	srv1, c1, _ := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 4, Store: openStore(t, dir)})
	resp1, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res1, err := c1.Wait(ctx, resp1.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Second life: a new Server, new pool, same directory.
	reg := metrics.New()
	_, c2, _ := newTestDaemon(t, service.Options{Workers: 1, QueueDepth: 4,
		Store: openStore(t, dir), Metrics: reg})
	resp2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("cold Submit: %v", err)
	}
	if !resp2.Cached || resp2.Status != "done" {
		t.Fatalf("cold Submit = %+v, want cached done", resp2)
	}
	if resp2.ID != resp1.ID {
		t.Fatalf("cold Submit ID %s != original %s", resp2.ID, resp1.ID)
	}
	res2, err := c2.Result(ctx, resp2.ID)
	if err != nil {
		t.Fatalf("cold Result: %v", err)
	}
	got, _ := json.Marshal(res2.Stats)
	want, _ := json.Marshal(res1.Stats)
	if string(got) != string(want) {
		t.Errorf("cold-start stats differ:\nstore:  %s\nfirst:  %s", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["service.jobs_executed_total"] != 0 {
		t.Errorf("jobs_executed_total = %d on cold start, want 0 (served from store)",
			snap.Counters["service.jobs_executed_total"])
	}
	if snap.Counters["service.cache_hits_total"] != 1 {
		t.Errorf("cache_hits_total = %d, want 1", snap.Counters["service.cache_hits_total"])
	}
}

// TestStoreCorruptEntryReExecutes: a corrupted store file is detected
// by hash re-verification and the job simply re-runs — wrong bytes can
// never be served.
func TestStoreCorruptEntryReExecutes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := &client.JobSpec{Source: tinySrc}

	srv1 := service.New(service.Options{Workers: 1, QueueDepth: 4, Store: openStore(t, dir)})
	resp, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Wait(resp.ID)
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt the single stored entry in place.
	var entryPath string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entryPath = path
		}
		return err
	})
	if err != nil || entryPath == "" {
		t.Fatalf("no store entry found under %s (err %v)", dir, err)
	}
	data, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), `"Cycles":`, `"Cycles":9`, 1)
	if mangled == string(data) {
		t.Fatalf("corruption edit did not apply to %s", data)
	}
	if err := os.WriteFile(entryPath, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	st2, err := store.Open(store.Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := service.New(service.Options{Workers: 1, QueueDepth: 4,
		Store: st2, Metrics: reg})
	resp2, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cached {
		t.Fatal("corrupted store entry was served as a cache hit")
	}
	srv2.Wait(resp2.ID)
	if got := reg.Snapshot().Counters["service.jobs_executed_total"]; got != 1 {
		t.Errorf("jobs_executed_total = %d, want 1 (re-executed past corruption)", got)
	}
	if got := reg.Snapshot().Counters["store.corrupt_entries_total"]; got != 1 {
		t.Errorf("store.corrupt_entries_total = %d, want 1", got)
	}
}

// TestSpecKeyMatchesSubmitID: the exported identity computation agrees
// with what Submit assigns — the contract the coordinator coalesces on.
func TestSpecKeyMatchesSubmitID(t *testing.T) {
	spec := &client.JobSpec{Source: tinySrc}
	hash, id, err := service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 64 {
		t.Errorf("hash %q is not a full SHA-256", hash)
	}
	if want := service.IDFromHash(hash); id != want {
		t.Errorf("id = %s, want %s", id, want)
	}
	srv := service.New(service.Options{Workers: 1})
	resp, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != id {
		t.Errorf("Submit assigned %s, SpecKey computed %s", resp.ID, id)
	}
	srv.Wait(resp.ID)
}

// TestResultEncoding pins the bytes of a store payload and of a result
// body: the outcome's fields in order, and the body adds the job ID in
// front. Stored entries and clients of earlier builds read both.
func TestResultEncoding(t *testing.T) {
	st := &stats.Stats{Cycles: 42, WarpInstrs: 7}
	statsJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	res := service.JobResult{Stats: st, Attempts: 2, Recovered: true, Detections: 3}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	outcome := `"stats":` + string(statsJSON) + `,"attempts":2,"recovered":true,"detections":3}`
	if want := "{" + outcome; string(payload) != want {
		t.Errorf("store payload = %s\nwant %s", payload, want)
	}
	body, err := json.Marshal(service.ResultResponse{ID: "j0123456789abcdef", JobResult: res})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"j0123456789abcdef",` + outcome; string(body) != want {
		t.Errorf("result body = %s\nwant %s", body, want)
	}
}
