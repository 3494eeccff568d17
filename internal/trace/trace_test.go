package trace

import (
	"strings"
	"testing"

	"warped/internal/isa"
	"warped/internal/simt"
)

func ev(cycle int64, pc int) Event {
	return Event{Cycle: cycle, PC: pc, Op: isa.OpIADD, Unit: isa.UnitSP,
		Executing: simt.FullMask(32)}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 3; i++ {
		r.Emit(ev(int64(i), i))
	}
	es := r.Events()
	if len(es) != 3 || es[0].Cycle != 0 || es[2].Cycle != 2 {
		t.Fatalf("partial ring wrong: %v", es)
	}
	// Overflow: oldest evicted, order preserved.
	for i := 3; i < 10; i++ {
		r.Emit(ev(int64(i), i))
	}
	es = r.Events()
	if len(es) != 4 {
		t.Fatalf("full ring length %d", len(es))
	}
	for i, e := range es {
		if e.Cycle != int64(6+i) {
			t.Fatalf("ring order wrong: %v", es)
		}
	}
	if r.Len() != 4 {
		t.Error("Len after overflow wrong")
	}
	if !strings.Contains(r.Dump(), "pc=9") {
		t.Error("Dump missing newest event")
	}
}

func TestRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Emit(ev(1, 1))
	if r.Len() != 1 {
		t.Error("zero-size ring should clamp to 1")
	}
}

func TestCSVWriter(t *testing.T) {
	var sb strings.Builder
	w := NewCSVWriter(&sb)
	w.Emit(ev(5, 7))
	w.Emit(Event{Cycle: 6, Op: isa.OpST, Unit: isa.UnitLDST, Stores: true})
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "cycle,sm,") {
		t.Error("missing header")
	}
	if !strings.Contains(lines[1], "iadd,SP,32") {
		t.Errorf("row 1 wrong: %s", lines[1])
	}
	if !strings.Contains(lines[2], "st,LDST,0,false,true") {
		t.Errorf("row 2 wrong: %s", lines[2])
	}
	if w.Err != nil {
		t.Error(w.Err)
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	var s Sink = SinkFunc(func(Event) { n++ })
	s.Emit(ev(0, 0))
	s.Emit(ev(1, 1))
	if n != 2 {
		t.Error("SinkFunc not invoked")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 12, SM: 3, BlockID: 4, WarpID: 5, PC: 6,
		Op: isa.OpFADD, Unit: isa.UnitSP, Executing: simt.FullMask(16),
		Divergent: true, Stores: true}
	s := e.String()
	for _, want := range []string{"cyc=12", "sm=3", "pc=6", "fadd", "act=16", "DIV", "ST"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string missing %q: %s", want, s)
		}
	}
}
