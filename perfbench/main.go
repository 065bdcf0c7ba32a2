// Command perfbench is the repository's benchmark. It drives one seeded
// workload through the public oasis API, checks the simulated system's
// outputs, and prints end-to-end metrics (untraced) or per-layer metrics
// (traced), ending with one JSON result line. See README.md.
//
//	go run . --workload net-echo --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string
}

// minReps is the fewest repetitions of the workload in a run, and the
// fewest traced ones in a traced run, so every reported figure is a median
// of at least three.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: net-echo, storage-rw or rack")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep repeating the workload for")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny sizes, for smoke tests")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and determinism digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --trace\n", o.workload)
		return 2
	}
	res, meta, err := measure(w, o)
	if meta != nil {
		printReport(stdout, o, res, meta)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// meta is the run metadata printed before the result line.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Tiny       bool           `json:"tiny,omitempty"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Reps       int            `json:"reps"`
	TracedReps int            `json:"traced_reps,omitempty"`
	Digest     string         `json:"digest"`
	Samples    map[string]int `json:"samples"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

// measure repeats the workload for the requested time and assembles the
// metrics. A traced run alternates traced and untraced repetitions,
// starting with a traced one, so the tracing overhead compares runs made
// under the same conditions at the cost of one repetition fewer than
// pairs would take.
func measure(w workload, o options) (*result, *meta, error) {
	if w.serial {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	m := &meta{
		Workload: w.name, Seed: o.seed, Tiny: o.tiny, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), Samples: map[string]int{},
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		plain, traced []*rep
		lastTr        *tracer // spans of the last traced run, written out
		cpu           = map[string]float64{}
		spans         = map[string][]float64{}
		before, after runtime.MemStats
		// Go runtime totals over the traced runs.
		allocMB, mallocs, gcs, ops float64
	)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traceThis := o.trace && i%2 == 0
		runtime.GC()
		var prof bytes.Buffer
		var tr *tracer
		if traceThis {
			tr = newTracer()
			runtime.ReadMemStats(&before)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, err
			}
		}
		r, err := w.run(o.seed, o.tiny, tr)
		if traceThis {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&after)
		}
		if err != nil {
			res.Correct = false
			return res, m, fmt.Errorf("output check failed: %w", err)
		}
		d := digest(r)
		if m.Digest == "" {
			m.Digest = d
		} else if d != m.Digest {
			res.Correct = false
			return res, m, fmt.Errorf("nondeterministic: run %d digest %s, run 1 digest %s", i+1, d, m.Digest)
		}
		res.Attempted += r.attempted
		if traceThis {
			traced = append(traced, r)
			lastTr = tr
			byLayer, err := cpuByLayer(prof.Bytes())
			if err != nil {
				return nil, nil, err
			}
			for k, v := range byLayer {
				cpu[k] += v
			}
			for k, v := range spanLayer(tr) {
				spans[k] = append(spans[k], v)
			}
			allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			mallocs += float64(after.Mallocs - before.Mallocs)
			gcs += float64(after.NumGC - before.NumGC)
			ops += float64(len(r.lat))
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minReps
		if o.trace {
			enough = len(traced) >= minReps
		}
		if enough && time.Now().After(deadline) {
			break
		}
	}
	m.Reps, m.TracedReps = len(plain), len(traced)
	if err := checkDigest(o, m.Digest); err != nil {
		res.Correct = false
		return res, m, err
	}

	r0 := plain[0]
	sim := simMetrics(r0)
	m.Samples["p50_us"] = len(r0.lat)
	m.Samples["p99_us"] = len(r0.lat)
	if !o.trace {
		col := func(f func(r *rep) float64) float64 {
			xs := make([]float64, len(plain))
			for i, r := range plain {
				xs[i] = f(r)
			}
			return median(xs)
		}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		res.Metrics["setup_s"] = metric{col(func(r *rep) float64 { return r.setupS }), "s"}
		res.Metrics["run_s"] = metric{col(func(r *rep) float64 { return r.runS }), "s"}
		res.Metrics["host_us_per_op"] = metric{col(func(r *rep) float64 { return r.runS / float64(max(1, len(r.lat))) * 1e6 }), "us"}
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
		for _, k := range []string{"p50_us", "p99_us", "ops_per_sim_s", "ok_frac"} {
			res.Metrics[k] = sim[k]
		}
		return res, m, nil
	}

	// Traced run: per-layer metrics.
	n := float64(len(traced))
	for _, l := range cpuLayers {
		res.Metrics[l+".cpu_s"] = metric{cpu[l] / n, "s"}
	}
	layer, rxLatCount := snapLayer(traced[0].snap, len(traced[0].lat))
	m.Samples["msgchan.rx_lat_p99_ns"] = rxLatCount
	m.Samples["loadgen.late_us_p99"] = traced[0].late
	for k, v := range layer {
		res.Metrics[k] = metric{v, unitOf(k)}
	}
	for k, v := range traced[0].layer {
		res.Metrics[k] = metric{v, unitOf(k)}
	}
	// Metrics only some workloads produce read 0 on the others.
	for _, k := range []string{"loadgen.late_us_p99", "oasis.blackout_us", "oasis.migrate_sim_ms"} {
		if _, ok := res.Metrics[k]; !ok {
			res.Metrics[k] = metric{0, unitOf(k)}
		}
	}
	for k, xs := range spans {
		res.Metrics[k] = metric{median(xs), unitOf(k)}
	}
	res.Metrics["fail_frac"] = metric{1 - sim["ok_frac"].Value, "ratio"}
	res.Metrics["outage_ms"] = metric{float64(r0.outage) / 1e6, "ms"}
	res.Metrics["goruntime.alloc_mb"] = metric{allocMB / n, "MB"}
	res.Metrics["goruntime.mallocs_per_op"] = metric{mallocs / math.Max(1, ops), "count"}
	res.Metrics["goruntime.gc_cycles"] = metric{gcs / n, "count"}
	runS := func(rs []*rep) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.runS
		}
		return median(xs)
	}
	res.Metrics["trace.overhead_frac"] = metric{runS(traced)/runS(plain) - 1, "ratio"}
	m.Samples["oasis.place_us_p50"] = len(lastTr.named("PlaceInstance"))
	m.TraceFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.json", w.name, o.seed))
	if err := lastTr.write(m.TraceFile); err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// simMetrics are the simulated (virtual-time) end-to-end metrics of a run;
// they are deterministic for a seed.
func simMetrics(r *rep) map[string]metric {
	lat := append([]int64(nil), r.lat...)
	ok := float64(len(r.lat)) / math.Max(1, float64(r.attempted))
	return map[string]metric{
		"p50_us":        {float64(percentile(lat, 50)) / 1e3, "us"},
		"p99_us":        {float64(percentile(lat, 99)) / 1e3, "us"},
		"ops_per_sim_s": {float64(len(r.lat)) / r.span.Seconds(), "ops/s"},
		"ok_frac":       {ok, "ratio"},
	}
}

// digest is the determinism digest of a run: a sha256 over its Stats()
// JSON and its simulated metrics. Two runs of one seed must agree.
func digest(r *rep) string {
	h := sha256.New()
	h.Write(r.snap.JSON())
	sim := simMetrics(r)
	for _, k := range sortedKeys(sim) {
		fmt.Fprintf(h, "\n%s=%v", k, sim[k].Value)
	}
	fmt.Fprintf(h, "\nattempted=%d completed=%d outage=%d", r.attempted, len(r.lat), r.outage)
	for _, k := range []string{"oasis.blackout_us", "oasis.migrate_sim_ms", "loadgen.late_us_p99"} {
		fmt.Fprintf(h, "\n%s=%v", k, r.layer[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares the digest with the one an earlier run of the same
// binary, workload and seed recorded, and records it if there is none.
func checkDigest(o options, d string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(o.out, "digests")
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-tiny%v-%s", o.workload, o.seed, o.tiny, hex.EncodeToString(sum[:8])))
	if prev, err := os.ReadFile(file); err == nil {
		if string(prev) != d {
			return fmt.Errorf("nondeterministic: digest %s, an earlier run of this binary and seed gave %s", d, prev)
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(file, []byte(d), 0o644)
}

// unitOf returns a per-layer metric's unit from its name.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_frac", "ratio"}, {"_s", "s"}, {"_ms", "ms"}, {"_us", "us"}, {"_us_p50", "us"}, {"_us_p99", "us"},
		{"_ns", "ns"}, {"_mb", "MB"}, {"bytes_per_op", "B/op"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// commit is the source revision the binary was built from, if recorded.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// printReport prints every metric with its unit, the metadata, and the
// result line last.
func printReport(w io.Writer, o options, res *result, m *meta) {
	if res != nil {
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Fprintf(w, "%-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	mb, _ := json.Marshal(map[string]*meta{"meta": m})
	fmt.Fprintln(w, string(mb))
	if res != nil {
		rb, _ := json.Marshal(res)
		fmt.Fprintln(w, string(rb))
	}
}
