package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warped/internal/metrics"
)

// key returns a distinct valid content-hash-shaped key.
func key(i int) string {
	return fmt.Sprintf("%064x", 0xabc000+i)
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := metrics.New()
	s, err := Open(Options{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"stats":{"cycles":42},"attempts":1}`)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key(1))
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if string(got) != string(payload) {
		t.Errorf("payload round trip: got %s, want %s", got, payload)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Error("Get of an unknown key hit")
	}
	snap := reg.Snapshot()
	if snap.Counters["store.hits_total"] != 1 || snap.Counters["store.misses_total"] != 1 ||
		snap.Counters["store.writes_total"] != 1 {
		t.Errorf("metrics = hits %d misses %d writes %d, want 1/1/1",
			snap.Counters["store.hits_total"], snap.Counters["store.misses_total"],
			snap.Counters["store.writes_total"])
	}
}

func TestInvalidInputs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "UPPERCASEUPPERCASE", "zzzzzzzzzzzzzzzzzz", strings.Repeat("a", 200)} {
		if err := s.Put(bad, []byte(`{}`)); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) hit on an invalid key", bad)
		}
	}
	if err := s.Put(key(1), []byte("not json")); err == nil {
		t.Error("Put accepted a non-JSON payload")
	}
}

// TestReopenRecovers: a fresh Store over an existing directory serves
// previously-written entries — the durable half of the cache contract.
func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key(1), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key(1))
	if !ok || string(got) != `{"x":1}` {
		t.Fatalf("reopened Get = %q, %v; want {\"x\":1}, true", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1", s2.Len())
	}
}

// TestResolve: a short address resolves to the stored key it prefixes,
// after a reopen too, and stops resolving once the entry is gone.
func TestResolve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	long := func(i int) string { return fmt.Sprintf("%016x", 0xabc000+i) + strings.Repeat("0", 48) }
	if err := s.Put(long(1), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	short := long(1)[:ShortKeyLen]
	if got, ok := s.Resolve(short); !ok || got != long(1) {
		t.Errorf("Resolve(%s) = %q, %v; want %s", short, got, ok, long(1))
	}
	for _, miss := range []string{long(2)[:ShortKeyLen], short[:8], long(1), ""} {
		if got, ok := s.Resolve(miss); ok {
			t.Errorf("Resolve(%q) = %q, want a miss", miss, got)
		}
	}
	reopened, err := Open(Options{Dir: dir, MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.Resolve(short); !ok || got != long(1) {
		t.Errorf("reopened Resolve(%s) = %q, %v; want %s", short, got, ok, long(1))
	}
	// Two more entries push the first out of the 400-byte budget.
	for i := 2; i <= 3; i++ {
		if err := reopened.Put(long(i), []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := reopened.Resolve(short); ok {
		t.Errorf("Resolve(%s) = %q after GC evicted it, want a miss", short, got)
	}
}

// TestCorruptionReadAsMiss: a flipped byte on disk must never surface
// as a payload — the read re-verifies the checksum, drops the entry,
// and reports a miss.
func TestCorruptionReadAsMiss(t *testing.T) {
	reg := metrics.New()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(1)[:2], key(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the payload (leave the JSON well-formed).
	corrupted := strings.Replace(string(data), "12345", "99345", 1)
	if corrupted == string(data) {
		t.Fatal("corruption edit did not apply")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key(1)); ok {
		t.Fatal("Get returned a corrupted payload")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry file was not deleted")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after corruption drop, want 0", s.Len())
	}
	if got := reg.Snapshot().Counters["store.corrupt_entries_total"]; got != 1 {
		t.Errorf("corrupt_entries_total = %d, want 1", got)
	}
	// The key is writable again: corruption heals by re-execution.
	if err := s.Put(key(1), []byte(`{"cycles":12345}`)); err != nil {
		t.Fatalf("re-Put after corruption: %v", err)
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Error("re-Put entry did not read back")
	}
}

// TestGCBound: exceeding MaxBytes evicts least-recently-used entries,
// and a Get refreshes recency.
func TestGCBound(t *testing.T) {
	reg := metrics.New()
	// Each entry file is ~160 bytes; budget roughly three of them.
	s, err := Open(Options{Dir: t.TempDir(), MaxBytes: 550, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is now the least recently used.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("Get(0) missed")
	}
	if err := s.Put(key(3), []byte(`{"i":3}`)); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() > 550 {
		t.Errorf("Bytes = %d, want <= 550 after GC", s.Bytes())
	}
	if _, ok := s.Get(key(1)); ok {
		t.Error("least-recently-used entry survived GC")
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Error("recently-touched entry was evicted")
	}
	if got := reg.Snapshot().Counters["store.gc_evictions_total"]; got == 0 {
		t.Error("gc_evictions_total = 0 after an eviction")
	}
}

// TestLoadCleansJunk: temp files from a crashed write and foreign
// files are removed at open, never indexed.
func TestLoadCleansJunk(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, key(1)[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []string{
		filepath.Join(sub, "put-123456.tmp"),
		filepath.Join(sub, "README"),
	}
	for _, p := range junk {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after opening junk-only dir, want 0", s.Len())
	}
	for _, p := range junk {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("junk file %s survived open", p)
		}
	}
}

// TestConcurrentAccess: the race detector's view of mixed Put/Get.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				k := key(i % 5)
				_ = s.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i%5)))
				s.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

// TestEnvelopeKeyMismatch: an entry renamed to a different (valid) key
// fails verification — the envelope's recorded key must match.
func TestEnvelopeKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, key(1)[:2], key(1))
	dst := filepath.Join(dir, key(9)[:2], key(9))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key(9)); ok {
		t.Error("entry under a mismatched key verified")
	}
}

// TestPayloadIsRawJSON: the stored payload unmarshals as submitted —
// the envelope adds integrity, not re-encoding.
func TestPayloadIsRawJSON(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]any{"stats": map[string]any{"cycles": float64(7)}, "attempts": float64(2)}
	payload, _ := json.Marshal(in)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok {
		t.Fatal("miss")
	}
	var out map[string]any
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("stored payload does not unmarshal: %v", err)
	}
	if out["attempts"] != in["attempts"] {
		t.Errorf("payload drifted: %v vs %v", out, in)
	}
}
