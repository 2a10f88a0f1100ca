package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// tracer records spans around the harness's calls into the system's
// packages: name, start, end, parent and the run they belong to. Spans
// stay in memory and are written out when the benchmark ends. A nil
// tracer records nothing, so untraced runs pay only a nil check per
// call.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Run    string `json:"run"`
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// start opens a span under the innermost open one and returns its id.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layer is the package a span's call went into: the span name up to
// its first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the parts of them their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[layer(s.Name)] += time.Duration(s.End - s.Start)
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[layer(t.spans[s.Parent].Name)] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
