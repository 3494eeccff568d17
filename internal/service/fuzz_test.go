package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warped/internal/metrics"
	"warped/internal/store"
)

// documentedSpecs returns the bodies of the ```json jobspec blocks in
// the service, policy and cluster docs, the examples tools/docscheck
// validates against the daemon's parser.
func documentedSpecs(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, doc := range []string{"SERVICE.md", "POLICIES.md", "CLUSTER.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "docs", doc))
		if err != nil {
			tb.Fatal(err)
		}
		blocks := strings.Split(string(data), "```json jobspec\n")
		for _, b := range blocks[1:] {
			body, _, ok := strings.Cut(b, "\n```")
			if !ok {
				tb.Fatalf("%s: unterminated jobspec block", doc)
			}
			out = append(out, []byte(body))
		}
	}
	if len(out) == 0 {
		tb.Fatal("no documented job specs found")
	}
	return out
}

// FuzzParseSpec feeds raw request bodies to the submit path's decoder.
// ParseSpec and Canonicalize must never panic, and a spec both accept
// must hash the same on a second call and after a wire round trip.
func FuzzParseSpec(f *testing.F) {
	for _, body := range documentedSpecs(f) {
		f.Add(body)
	}
	n := func(v int) *int { return &v }
	for _, spec := range []*JobSpec{
		{Benchmark: "MatrixMul", Config: &ConfigSpec{Preset: "WARPED", DMR: "full", Mapping: "rr", ReplayQ: n(10), SMs: n(30)}},
		{Benchmark: "MatrixMul", Policy: "warpsample:2", Retry: 3, StopOnError: true},
		{Benchmark: "SHA", Faults: &FaultSpec{Random: 4, Kind: "transient", MaxCycle: 5000}, Seed: 7},
		{Benchmark: "MatrixMul", Faults: &FaultSpec{Faults: []FaultDef{{Kind: "Stuck-At", SM: -1, Lane: 3, Unit: "SFU", Bit: 7, StuckVal: 1, Cycle: 9}}}},
		{Source: "mov r0, %tid.x\nexit\n", GridX: 2, BlockX: 64, SharedBytes: 256, Params: []uint32{1, 2}},
		{Source: "exit\n", BlockX: 1 << 32, BlockY: 1 << 32},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := ParseSpec(body)
		if err != nil {
			return
		}
		hash, _, err := SpecKey(spec)
		if err != nil {
			return
		}
		if again, _, err := SpecKey(spec); err != nil || again != hash {
			t.Fatalf("second SpecKey = %q, %v; want %q", again, err, hash)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := ParseSpec(wire)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", wire, err)
		}
		if got, _, err := SpecKey(back); err != nil || got != hash {
			t.Fatalf("round-tripped spec %s hashes %q, %v; want %q", wire, got, err, hash)
		}
	})
}

// FuzzStoreEntry fuzzes the durable tier's read path. Arbitrary bytes
// in an entry file must read as a miss that counts one corruption (or,
// should they form a valid envelope, as a hit on the payload whose
// checksum they record), never a panic; and any payload the store
// accepts, which passes its checksum on read, must decode in storeGet
// to a miss or to a result that carries Stats.
func FuzzStoreEntry(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	sum := sha256.Sum256([]byte(`{"stats":{}}`))
	f.Add([]byte(`{"v":1,"key":"`+key+`","sum":"`+hex.EncodeToString(sum[:])+`","payload":{"stats":{}}}`), []byte(`{"stats":{"Cycles":12}}`))
	f.Add([]byte(`{"v":1,"key":"k","sum":"","payload":{}}`), []byte(`{"stats":{"Cycles":12}}`))
	f.Add([]byte(`{"v":1`), []byte(`{"stats":null}`))
	f.Add([]byte{}, []byte(`[1,2]`))
	f.Add([]byte(`null`), []byte(`{"stats":{"Cycles":"x"}}`))
	f.Fuzz(func(t *testing.T, file, payload []byte) {
		dir := t.TempDir()
		reg := metrics.New()
		st, err := store.Open(store.Options{Dir: dir, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key[:2], key)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupt := func() int64 { return reg.Snapshot().Counters["store.corrupt_entries_total"] }
		got, ok := st.Get(key)
		switch sum := sha256.Sum256(got); {
		case ok && !bytes.Contains(file, []byte(hex.EncodeToString(sum[:]))):
			t.Fatalf("hit on %q, whose checksum the entry file does not record", got)
		case ok && corrupt() != 0:
			t.Fatalf("hit counted %d corruptions", corrupt())
		case !ok && corrupt() != 1:
			t.Fatalf("miss counted %d corruptions, want 1", corrupt())
		}

		const key2 = "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210"
		if st.Put(key2, payload) != nil {
			return // the store keeps JSON payloads only
		}
		s := NewServer("service", nil, 0, nil, st)
		if res := s.storeGet(key2); res != nil && res.Stats == nil {
			t.Fatalf("payload %q decoded to a result without Stats", payload)
		}
	})
}
