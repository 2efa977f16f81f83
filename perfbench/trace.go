package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Parent is the ID of the span that caused
// it (0 for a pass root); every span of a run shares the run's trace ID.
type span struct {
	Trace  uint64        `json:"trace"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Pass   int           `json:"pass"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	ended  bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a run in memory until the run ends. A nil
// tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	trace uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(trace uint64) *tracer {
	return &tracer{trace: trace, epoch: time.Now()}
}

// spanRef is an open span; the zero spanRef (from a nil tracer) is inert.
type spanRef struct {
	t    *tracer
	id   int
	pass int
}

// root opens the span that parents every layer call of one pass.
func (t *tracer) root(pass int, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.begin(pass, 0, name, "")
}

func (t *tracer) begin(pass, parent int, name, label string) spanRef {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Pass: pass, Name: name, Label: label, Start: now, End: now})
	return spanRef{t: t, id: id, pass: pass}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef { return s.childLabel(name, "") }

// childLabel opens a span caused by s, tagged with a label such as the HTTP
// endpoint or probe module.
func (s spanRef) childLabel(name, label string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.begin(s.pass, s.id, name, label)
}

// end closes the span; ending it again leaves it as it was.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	if sp := &s.t.spans[s.id-1]; !sp.ended {
		sp.End, sp.ended = now, true
	}
	s.t.mu.Unlock()
}

// passSpans returns a copy of the spans recorded for one pass.
func (t *tracer) passSpans(pass int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Pass == pass {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover. Children that overlap one
// another (concurrent calls) cover their union once, and a child running
// past its parent's end is clipped to the parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered time.Duration
		cur := iv{-1, -1}
		for _, c := range ivs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv{lo, hi}
				continue
			}
			cur.hi = max(cur.hi, hi)
		}
		covered += cur.hi - cur.lo
		out[s.Name] += s.dur() - covered
	}
	return out
}
