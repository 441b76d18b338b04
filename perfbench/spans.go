package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a module's public
// function. Times are nanoseconds since the recorder's epoch; parent is
// the index of the enclosing span, or -1 for a top-level span.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory for the traced run. A nil *recorder is
// the untraced run: every method is a no-op, so workload code calls it
// unconditionally. It is used from the workload's single goroutine only.
type recorder struct {
	epoch   time.Time
	spans   []span
	stack   []int32
	op      int64
	limit   int
	dropped int
}

// newRecorder returns a recorder that keeps at most limit spans; spans
// beyond it are counted as dropped, together with their children.
func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, spans: make([]span, 0, 1024)}
}

// setOp tags the spans that follow with op id.
func (r *recorder) setOp(op int64) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span and returns its handle for end. Handles are -1 when
// the span was dropped.
func (r *recorder) begin(layer, name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	if len(r.spans) >= r.limit || (len(r.stack) > 0 && parent < 0) {
		r.dropped++
		r.stack = append(r.stack, -1)
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Layer: layer, Name: name, Parent: parent, Op: r.op,
		Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.stack = r.stack[:len(r.stack)-1]
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// selfTimes returns each span's duration minus the durations of its
// children, indexed like spans. The recorder keeps one stack on one
// goroutine, so children never overlap and never outlive their parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanSummary holds a recording's durations by span name.
type spanSummary struct {
	durations map[string][]time.Duration
}

func (r *recorder) summarize() spanSummary {
	sum := spanSummary{durations: map[string][]time.Duration{}}
	if r == nil {
		return sum
	}
	for _, s := range r.spans {
		sum.durations[s.Name] = append(sum.durations[s.Name], time.Duration(s.End-s.Start))
	}
	return sum
}

// p50ns returns the median duration of the named spans in nanoseconds (0
// when none were recorded).
func (s spanSummary) p50ns(name string) float64 {
	return durQuantile(s.durations[name], 0.5)
}

// write dumps the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
