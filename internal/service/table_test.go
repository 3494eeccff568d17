package service

import (
	"context"
	"testing"
	"time"

	"warped/internal/store"
)

// TestFinishedEntryKeepsOnlyTheAnswer: a retained entry must not pin
// the submitted spec or its canonical form (an inline source may be up
// to maxSpecBytes), whether it finished by execution, by failure, or
// was materialized from the durable store.
func TestFinishedEntryKeepsOnlyTheAnswer(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const src = ".kernel tiny\n\tmov r0, %tid.x\n\texit\n"
	entry := func(s *Server, spec *JobSpec, wantCached bool) *Job {
		t.Helper()
		resp, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached {
			t.Fatalf("Submit = %+v, want cached %v", resp, wantCached)
		}
		s.Wait(context.Background(), resp.ID, time.Minute)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[resp.ID]
	}
	check := func(name string, j *Job, wantResult bool) {
		t.Helper()
		if j.id == "" || j.hash == "" {
			t.Errorf("%s: entry lost its identity: id %q hash %q", name, j.id, j.hash)
		}
		if j.spec != nil || j.canon != nil {
			t.Errorf("%s: finished entry still holds spec %v / canonical form %v", name, j.spec != nil, j.canon != nil)
		}
		if got := j.result != nil; got != wantResult || (j.errMsg == "") != wantResult {
			t.Errorf("%s: result %v, error %q; want exactly one of them", name, j.result != nil, j.errMsg)
		}
	}

	s := New(Options{Workers: 1, Store: st})
	check("done", entry(s, &JobSpec{Source: src}, false), true)
	check("failed", entry(s, &JobSpec{Source: ".kernel bad\n\tbogus r0\n"}, false), false)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	cold := New(Options{Workers: 1, Store: st})
	defer cold.Drain(context.Background())
	check("store hit", entry(cold, &JobSpec{Source: src}, true), true)
}
