// Package trace provides instruction-level execution tracing for the
// simulator: a sink interface the SM calls at every issue, plus
// ready-made sinks — a ring buffer for post-mortem inspection, a CSV
// writer for offline analysis, and a filtering wrapper. Tracing is a
// debugging substrate: GPGPU-Sim ships the same facility, and porting
// kernels to the simulator without it is miserable.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"warped/internal/isa"
	"warped/internal/simt"
)

// Event describes one issued warp instruction.
type Event struct {
	Cycle     int64
	SM        int
	WarpGID   int
	BlockID   int
	WarpID    int
	PC        int
	Op        isa.Opcode
	Unit      isa.UnitClass
	Executing simt.Mask
	Divergent bool
	Stores    bool
}

// String renders an event as a one-line log record. Flags are rendered
// as a single space-joined suffix (" DIV", " ST", or " DIV ST") so that
// records stay grep-able regardless of which flag combination is set.
func (e Event) String() string {
	var flags []string
	if e.Divergent {
		flags = append(flags, "DIV")
	}
	if e.Stores {
		flags = append(flags, "ST")
	}
	suffix := ""
	if len(flags) > 0 {
		suffix = " " + strings.Join(flags, " ")
	}
	return fmt.Sprintf("cyc=%-8d sm=%-2d blk=%-3d w=%-2d pc=%-4d %-8s %-4s act=%2d%s",
		e.Cycle, e.SM, e.BlockID, e.WarpID, e.PC, e.Op, e.Unit, e.Executing.Count(), suffix)
}

// Sink consumes trace events. Implementations must be cheap: Emit is
// called once per issued instruction.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(e Event) { f(e) }

// Ring keeps the last N events — enough for "what led up to the fault"
// post-mortems without unbounded memory.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRing creates a ring buffer holding n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit appends an event, evicting the oldest when full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many events are buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dump renders the buffered events as a log.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVWriter streams events as CSV rows (with header) to an io.Writer.
type CSVWriter struct {
	w     io.Writer
	wrote bool
	Err   error // first write error, if any
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: w} }

// Emit writes one CSV row.
func (c *CSVWriter) Emit(e Event) {
	if c.Err != nil {
		return
	}
	if !c.wrote {
		c.wrote = true
		if _, err := io.WriteString(c.w, "cycle,sm,block,warp,pc,op,unit,active,divergent,stores\n"); err != nil {
			c.Err = err
			return
		}
	}
	_, err := fmt.Fprintf(c.w, "%d,%d,%d,%d,%d,%s,%s,%d,%t,%t\n",
		e.Cycle, e.SM, e.BlockID, e.WarpID, e.PC, e.Op, e.Unit,
		e.Executing.Count(), e.Divergent, e.Stores)
	if err != nil {
		c.Err = err
	}
}
