package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"oasis"
)

// span is one traced interval, in host (wall) time and virtual time. Host
// offsets are from the tracer's creation. For calls that block in virtual
// time the host interval also covers other simulated processes the
// cooperative scheduler ran meanwhile, so read the virtual duration for
// them and take their host cost from the CPU profile.
type span struct {
	Name   string   `json:"name"`
	Parent int      `json:"parent"`        // index into the span list, -1 for a root
	Req    uint64   `json:"req,omitempty"` // request id, for sampled request spans
	HostNs [2]int64 `json:"host_ns"`
	SimNs  [2]int64 `json:"sim_ns"`
}

// tracer holds spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, now oasis.Duration) int {
	if t == nil {
		return -1
	}
	h := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Parent: parent, HostNs: [2]int64{h, h}, SimNs: [2]int64{int64(now), int64(now)}})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, now oasis.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].HostNs[1] = int64(time.Since(t.t0))
	t.spans[i].SimNs[1] = int64(now)
}

// call records fn as one child span of parent; used for every builder
// call during set-up.
func (t *tracer) call(name string, parent int, now func() oasis.Duration, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name, parent, now())
	fn()
	t.end(i, now())
}

// request records a sampled request span from its due time to its
// completion, in virtual time only: a request crosses many simulated
// processes.
func (t *tracer) request(id uint64, due, done oasis.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: "request", Parent: -1, Req: id, SimNs: [2]int64{int64(due), int64(done)}})
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
