package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// offsets from the recorder's epoch; Parent is the causing span's ID (-1
// for a root) and Run the measured run the span belongs to (-1 outside
// runs, e.g. a restore).
type Span struct {
	ID, Parent, Run int
	Name            string
	Start, End      time.Duration
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark ends. A nil
// *Recorder is a valid no-op: Begin returns -1 and End ignores it, so the
// untraced run pays one nil check per boundary.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	now := time.Since(r.epoch)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: now})
	return id
}

// End closes the span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
}

// Add records a span whose bounds were measured elsewhere (a duration the
// program reports through its telemetry registry, placed inside its
// parent by the caller) and returns its ID.
func (r *Recorder) Add(name string, parent, run int, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

// Get returns the span with the given ID.
func (r *Recorder) Get(id int) Span { return r.spans[id] }

// Spans returns every recorded span in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteCSV writes every span, one per line, as
// id,parent,run,name,start_ns,end_ns.
func (r *Recorder) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,run,name,start_ns,end_ns")
	for _, s := range r.Spans() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Run, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children indexes spans by parent ID.
func children(spans []Span) map[int][]Span {
	out := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime returns the part of parent's interval that none of its direct
// children cover: the parent's duration minus the union of the children's
// intervals, each clipped to the parent's bounds.
func selfTime(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end time.Duration
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.Duration() - covered
}
