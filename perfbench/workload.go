package main

import (
	"fmt"
	"math/rand"
	"time"

	"oasis"
)

// rep is the outcome of one run of a workload: set-up, the Run phase over
// the workload's fixed virtual span, and the output checks.
type rep struct {
	setupS float64 // host seconds: build, Start, spawn of the workload processes
	runS   float64 // host seconds of the Run phase

	span      oasis.Duration // virtual time the ops were offered over
	attempted int
	lat       []int64        // virtual latency of each completed op, ns
	outage    oasis.Duration // longest first-failure-to-next-success window of any flow
	late      int            // open loop: sends behind loadgen.late_us_p99
	snap      oasis.Snapshot
	// layer holds per-layer values the benchmark measures itself (load
	// generator lateness, span-derived timings, exported fields).
	layer map[string]float64
}

// workload is one seeded input set. run builds the system, drives it and
// checks its outputs; tr is nil for untraced runs.
type workload struct {
	name string
	run  func(seed int64, tiny bool, tr *tracer) (*rep, error)
	// serial workloads run on one simulation engine, which executes one
	// process at a time: they run with GOMAXPROCS=1, since a second P only
	// adds thread handoffs and noise. Partitioned ones use every CPU.
	serial bool
}

var workloads = []workload{
	{"net-echo", runNetEcho, true},
	{"storage-rw", runStorageRW, true},
	{"rack", runRack, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// flowLog follows one flow's (or volume's) ops in due order, in virtual
// time, for its longest outage: from the due time of the first failed op
// after a success to the completion of the next success (0 when nothing
// fails).
type flowLog struct {
	failedAt oasis.Duration // due time of the first failure since the last success; -1 if none
	outage   oasis.Duration
}

func newFlowLog() *flowLog { return &flowLog{failedAt: -1} }

func (f *flowLog) fail(due oasis.Duration) {
	if f.failedAt < 0 {
		f.failedAt = due
	}
}

func (f *flowLog) ok(done oasis.Duration) {
	if f.failedAt >= 0 {
		f.outage = max(f.outage, done-f.failedAt)
		f.failedAt = -1
	}
}

// worstOutage ends every log at the end of the span, where a flow still
// failing counts its outage up to end, and returns the worst outage.
func worstOutage(logs []*flowLog, end oasis.Duration) oasis.Duration {
	var w oasis.Duration
	for _, l := range logs {
		l.ok(end)
		w = max(w, l.outage)
	}
	return w
}

// requestSample is the sampling period of request spans in traced runs.
const requestSample = 64

// poisson returns the arrival times of a Poisson process at rate per
// virtual second between start and until.
func poisson(rng *rand.Rand, start oasis.Duration, rate float64, until oasis.Duration) []oasis.Duration {
	var out []oasis.Duration
	t := float64(start)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if oasis.Duration(t) >= until {
			return out
		}
		out = append(out, oasis.Duration(t))
	}
}

// fillPattern writes the deterministic body of message id into b: every
// byte depends on the id and its position, so a corrupted, truncated or
// misdelivered payload differs.
func fillPattern(b []byte, id uint64) {
	x := id*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := range b {
		if i%8 == 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		b[i] = byte(x >> (uint(i%8) * 8))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("perfbench: build: %v", err))
	}
	return v
}
