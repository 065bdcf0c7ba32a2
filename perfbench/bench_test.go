package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"oasis"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTiny runs the command on a tiny workload and returns its result line.
func runTiny(t *testing.T, workload, trace, out string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--tiny", "--seconds", "0", "--trace", trace, "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and checks that exactly the metrics it names are emitted,
// each with its unit and a valid name.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	out := t.TempDir()
	for _, w := range c.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("workload %q has no implementation", w.Name)
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			res := runTiny(t, w.Name, trace, out)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range res.Metrics {
				if !validName.MatchString(name) {
					t.Errorf("metric name %q has characters outside letters, digits, _ . -", name)
				}
			}
		}
	}
}

// TestDeterminism runs each tiny workload twice in one process and twice
// through the command (which compares against the recorded digest).
func TestDeterminism(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		a, err := w.run(7, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(7, true, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) != digest(b) {
			t.Errorf("%s: untraced and traced runs of one seed differ", w.name)
		}
		runTiny(t, w.name, "0", out)
		runTiny(t, w.name, "0", out) // fails on a digest mismatch
	}
}

// TestDigestMismatchTrips shows the cross-run digest check rejects a
// digest that differs from the recorded one.
func TestDigestMismatchTrips(t *testing.T) {
	o := options{workload: "net-echo", seed: 3, out: t.TempDir()}
	if err := checkDigest(o, "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(o, "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(o, "bbbb"); err == nil {
		t.Fatal("a changed digest for the same binary and seed passed")
	}
}

func TestEchoCheckTrips(t *testing.T) {
	reqs := genEcho(1, 1, 8, 600e3, 0, time.Millisecond)[0]
	done := make([]oasis.Duration, len(reqs))
	scratch := make([]byte, echoSizes[1])
	reply := append([]byte(nil), echoPayload(make([]byte, echoSizes[1]), 5, reqs[5])...)
	if k, err := checkEcho(reqs, done, 0, reply, scratch); err != nil || k != 5 {
		t.Fatalf("a correct reply failed the check: k=%d err=%v", k, err)
	}
	for _, pos := range []int{echoHeader, len(reply) - 1} {
		bad := append([]byte(nil), reply...)
		bad[pos] ^= 0x01
		if _, err := checkEcho(reqs, done, 0, bad, scratch); err == nil {
			t.Errorf("a reply with a flipped byte passed the check")
		}
	}
	if _, err := checkEcho(reqs, done, 0, reply[:len(reply)-1], scratch); err == nil {
		t.Error("a truncated reply passed the check")
	}
	if _, err := checkEcho(reqs, done, 1, reply, scratch); err == nil {
		t.Error("another client's reply passed the check")
	}
	done[5] = 1
	if _, err := checkEcho(reqs, done, 0, reply, scratch); err == nil {
		t.Error("a duplicate reply passed the check")
	}
}

func TestStorageCheckTrips(t *testing.T) {
	l := &ledger{vol: 2, first: 64, seq: make([]uint64, 8)}
	scratch := make([]byte, blockSize)
	if err := l.checkRead(65, make([]byte, blockSize), scratch); err != nil {
		t.Fatalf("a never-written block read as zeros failed: %v", err)
	}
	old := append([]byte(nil), fillBlock(make([]byte, blockSize), 2, 65, 1)...)
	l.seq[1] = 2
	if err := l.checkRead(65, fillBlock(make([]byte, blockSize), 2, 65, 2), scratch); err != nil {
		t.Fatalf("the last acked write failed: %v", err)
	}
	if err := l.checkRead(65, old, scratch); err == nil {
		t.Error("a stale read-back passed the check")
	}
	if err := l.checkRead(65, fillBlock(make([]byte, blockSize), 2, 66, 2), scratch); err == nil {
		t.Error("another LBA's block passed the check")
	}
}

func TestRackChecksTrip(t *testing.T) {
	led := &writeLedger{acked: make([]uint64, 4), since: make([][]uint64, 4)}
	scratch := make([]byte, blockSize)
	led.acked[1], led.since[1] = 5, []uint64{6}
	for _, seq := range []uint64{5, 6} {
		if err := led.checkBlock(1, fillBlock(make([]byte, blockSize), 0, 1, seq), scratch); err != nil {
			t.Errorf("write %d failed the migration check: %v", seq, err)
		}
	}
	if err := led.checkBlock(1, fillBlock(make([]byte, blockSize), 0, 1, 4), scratch); err == nil {
		t.Error("a stale block on the destination passed the check")
	}

	want := []string{"a", "b"}
	ready := map[string]bool{"a": true, "b": true}
	ok := map[string][]int{"a": {0}, "b": {2}}
	migs := []migration{{ip: "b", from: 0, moved: true}}
	if err := checkRack(want, ok, ready, migs); err != nil {
		t.Fatalf("a good placement failed: %v", err)
	}
	for name, c := range map[string]struct {
		where map[string][]int
		ready map[string]bool
		migs  []migration
	}{
		"duplicated":        {map[string][]int{"a": {0, 1}, "b": {2}}, ready, migs},
		"lost":              {map[string][]int{"b": {2}}, ready, migs},
		"unallocated":       {ok, map[string]bool{"a": true}, migs},
		"unmoved":           {map[string][]int{"a": {0}, "b": {0}}, ready, migs},
		"abort lost source": {ok, ready, []migration{{ip: "b", from: 0, failed: true}}},
	} {
		if err := checkRack(want, c.where, c.ready, c.migs); err == nil {
			t.Errorf("%s: placement passed the check", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"oasis/internal/sim.(*Engine).heapPop":                                             "sim",
		"oasis/internal/sim.(*Queue[go.shape.struct { oasis/internal/netstack.Src }]).Pop": "sim",
		"oasis/internal/core.(*LinkSet).PollEach":                                          "core",
		"oasis.(*Cluster).Run":                                                             "oasis",
		"oasis/internal/obs.(*Registry).Snapshot":                                          "other",
		"runtime.chanrecv":                                                                 "goruntime",
		"internal/runtime/atomic.(*Int32).Add":                                             "goruntime",
		"sort.Slice":                                                                       "other",
		"main.runRack.func3":                                                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileRollup profiles a busy loop and checks the roll-up accounts
// for the profile's samples across the known layers.
func TestProfileRollup(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += len(strings.Repeat("x", 64))
	}
	pprof.StopCPUProfile()
	got, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range cpuLayers {
		v, ok := got[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		total += v
	}
	if len(got) != len(cpuLayers) || total <= 0 || x == 0 {
		t.Errorf("roll-up %v: %d layers, total %v s", got, len(got), total)
	}
	if _, err := cpuByLayer([]byte("not gzip")); err == nil {
		t.Error("a corrupt profile parsed")
	}
}
