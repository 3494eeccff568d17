// Package store is the durable tier of the content-addressed result
// cache: a directory of immutable payload files keyed by job content
// hash, layered behind the in-memory LRU of internal/service and under
// the cluster coordinator (internal/cluster).
//
// Content addressing is what makes the store safe to share and to keep
// across restarts: a key is the SHA-256 of the job's canonical form,
// results are deterministic, so an entry can never go stale — it is
// either byte-correct or corrupt. The store therefore re-verifies
// every read (a recorded payload checksum must match) and silently
// drops anything that fails, turning disk corruption into a cache miss
// instead of a wrong answer. Writes are write-then-rename so a crash
// mid-write can never leave a half-entry under a valid key, and a
// size-bound GC evicts least-recently-used entries once the payload
// footprint exceeds the budget.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"warped/internal/metrics"
)

// envelope is the on-disk record: the key it serves, a checksum of the
// payload bytes, and the payload itself. Key and sum are both
// verified on read; a mismatch in either is corruption.
type envelope struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// envelopeVersion guards the file format; a future shape change bumps
// it and old files read as misses instead of misparses.
const envelopeVersion = 1

// ShortKeyLen is the length of a short address, the key prefix Resolve
// takes. A job ID carries one (service.IDFromHash).
const ShortKeyLen = 16

// entry is the in-memory index record of one stored file.
type entry struct {
	size int64  // file size on disk, the unit the GC budget counts
	seq  uint64 // logical access clock; smallest = least recently used
}

// Options sizes a Store.
type Options struct {
	// Dir is the store directory; it is created if missing. Entries
	// land in two-character fan-out subdirectories (Dir/ab/abcd…).
	Dir string

	// MaxBytes bounds the total size of stored entry files; <= 0 means
	// 1 GiB. When a write pushes past the bound, least-recently-used
	// entries are deleted until it fits.
	MaxBytes int64

	// Metrics, when non-nil, receives the store.* instrument set.
	Metrics *metrics.Registry
}

// Store is a durable content-addressed key/payload store. All methods
// are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	met      *metrics.Store

	mu      sync.Mutex
	index   map[string]*entry
	short   map[string]string // key[:ShortKeyLen] -> key, for Resolve
	bytes   int64
	nextSeq uint64
}

// Open creates (or reopens) the store rooted at opt.Dir, rebuilding
// the index from the files already on disk. Files that do not look
// like entries (temp files from a crashed write included) are deleted.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	maxBytes := opt.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      opt.Dir,
		maxBytes: maxBytes,
		met:      metrics.ForStore(opt.Metrics),
		index:    make(map[string]*entry),
		short:    make(map[string]string),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load walks the directory and rebuilds the index. Access order is
// seeded from file modification times so the GC's least-recently-used
// ordering survives a restart.
func (s *Store) load() error {
	type found struct {
		key     string
		size    int64
		modUnix int64
	}
	var files []found
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		names, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, de := range names {
			key := de.Name()
			path := filepath.Join(s.dir, sub.Name(), key)
			if de.IsDir() || !validKey(key) || !strings.HasPrefix(key, sub.Name()) {
				// Leftover temp file from a crashed write, or foreign
				// junk: not addressable, so reclaim the space.
				_ = os.RemoveAll(path)
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue
			}
			files = append(files, found{key: key, size: info.Size(), modUnix: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].modUnix != files[j].modUnix {
			return files[i].modUnix < files[j].modUnix
		}
		return files[i].key < files[j].key
	})
	for _, f := range files {
		s.indexLocked(f.key, f.size)
	}
	s.gcLocked()
	s.publishLocked()
	return nil
}

// validKey reports whether key is a plausible content hash: lowercase
// hex, at least ShortKeyLen characters. The store does not insist on
// full SHA-256 length so callers may key on a shortened address, but
// anything non-hex is rejected (and cleaned up at load).
func validKey(key string) bool {
	if len(key) < ShortKeyLen || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the verified payload stored under key. A missing entry,
// an unreadable file, or an entry that fails hash re-verification
// returns ok == false; corrupt entries are deleted on the spot.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.met.Misses.Inc()
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.met.Misses.Inc()
		return nil, false
	}
	s.nextSeq++
	e.seq = s.nextSeq
	s.mu.Unlock()

	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.dropCorrupt(key)
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil ||
		env.V != envelopeVersion || env.Key != key || env.Sum != payloadSum(env.Payload) {
		s.dropCorrupt(key)
		return nil, false
	}
	s.met.Hits.Inc()
	return env.Payload, true
}

// dropCorrupt removes an entry that failed verification, counting it
// as both a corruption and (for the caller's purposes) a miss.
func (s *Store) dropCorrupt(key string) {
	s.mu.Lock()
	s.unindexLocked(key)
	s.publishLocked()
	s.mu.Unlock()
	_ = os.Remove(s.path(key))
	s.met.Corruptions.Inc()
	s.met.Misses.Inc()
}

// Put durably stores payload under key: the envelope is written to a
// temp file in the same directory and renamed into place, so readers
// (and crashes) only ever see complete entries. Re-putting an existing
// key is a no-op refresh. A write that pushes the store past its size
// budget triggers the LRU GC.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q (want lowercase hex, >= 16 chars)", key)
	}
	if !json.Valid(payload) {
		return fmt.Errorf("store: payload for %s is not valid JSON", key)
	}
	env := envelope{
		V:       envelopeVersion,
		Key:     key,
		Sum:     payloadSum(payload),
		Payload: json.RawMessage(payload),
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}

	s.mu.Lock()
	if _, ok := s.index[key]; ok {
		// Content addressing: an existing entry is already correct (or
		// will read as corrupt and self-heal). Refresh recency only.
		s.nextSeq++
		s.index[key].seq = s.nextSeq
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: committing %s: %w", key, err)
	}

	s.mu.Lock()
	if _, ok := s.index[key]; !ok {
		s.indexLocked(key, int64(len(data)))
	}
	s.gcLocked()
	s.publishLocked()
	s.mu.Unlock()
	s.met.Writes.Inc()
	return nil
}

// gcLocked deletes least-recently-used entries until the payload
// footprint fits the budget. Caller holds s.mu.
func (s *Store) gcLocked() {
	if s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key string
		seq uint64
	}
	var order []aged
	for key, e := range s.index {
		order = append(order, aged{key: key, seq: e.seq})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	for _, a := range order {
		if s.bytes <= s.maxBytes {
			break
		}
		s.unindexLocked(a.key)
		_ = os.Remove(s.path(a.key))
		s.met.GCEvictions.Inc()
	}
}

// indexLocked records a stored file as the most recently used entry.
// Caller holds s.mu.
func (s *Store) indexLocked(key string, size int64) {
	s.nextSeq++
	s.index[key] = &entry{size: size, seq: s.nextSeq}
	s.short[key[:ShortKeyLen]] = key
	s.bytes += size
}

// unindexLocked forgets key, if it is indexed. Caller holds s.mu.
func (s *Store) unindexLocked(key string) {
	e, ok := s.index[key]
	if !ok {
		return
	}
	delete(s.index, key)
	if s.short[key[:ShortKeyLen]] == key {
		delete(s.short, key[:ShortKeyLen])
	}
	s.bytes -= e.size
}

// Resolve returns the stored key whose first ShortKeyLen characters are
// prefix. It reads only the in-memory index, so an address nobody
// stored costs one map lookup and no disk access.
func (s *Store) Resolve(prefix string) (key string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok = s.short[prefix]
	return key, ok
}

// publishLocked refreshes the footprint gauges. Caller holds s.mu.
func (s *Store) publishLocked() {
	s.met.Entries.Set(int64(len(s.index)))
	s.met.Bytes.Set(s.bytes)
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total size of stored entry files.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// payloadSum is the recorded checksum of the payload bytes: hex
// SHA-256, the same primitive as the job content address.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
