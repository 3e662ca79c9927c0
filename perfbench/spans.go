package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer of the
// program. Spans of one benchmark op share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent, op int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records an already-timed span.
func (l *spanLog) add(name string, parent, op int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

// Len is the number of spans recorded.
func (l *spanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations returns the durations, in ns, of every span named name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (l *spanLog) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
