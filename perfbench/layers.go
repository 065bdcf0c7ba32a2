package main

import (
	"regexp"
	"sort"

	"oasis"
)

// snapLayer derives the per-layer counts from a Stats snapshot, summed over
// hosts and pods. Names are matched by their last path segments, so pod
// and host prefixes drop out.
// It also returns the sample count of the worst channel's latency
// histogram, the one msgchan.rx_lat_p99_ns reports.
func snapLayer(s oasis.Snapshot, ops int) (map[string]float64, int) {
	sum := func(pattern string) float64 {
		re := regexp.MustCompile(`(^|/)` + pattern + `$`)
		t := 0.0
		for _, pt := range s.Points {
			if pt.Hist == nil && re.MatchString(pt.Name) {
				t += pt.Value
			}
		}
		return t
	}
	sumLabel := func(pattern, label string) float64 {
		re := regexp.MustCompile(`(^|/)` + pattern + `$`)
		t := 0.0
		for _, pt := range s.Points {
			if pt.Label == label && re.MatchString(pt.Name) {
				t += pt.Value
			}
		}
		return t
	}
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	chanP99, chanN := 0.0, 0
	rxLat := regexp.MustCompile(`/chan/[^/]+/rx_lat$`)
	for _, pt := range s.Points {
		if pt.Hist != nil && rxLat.MatchString(pt.Name) && float64(pt.Hist.P99) > chanP99 {
			chanP99, chanN = float64(pt.Hist.P99), int(pt.Hist.Count)
		}
	}
	hits, misses := sum(`cache/hits`), sum(`cache/misses`)
	iters := sum(`core/.+/iters`)
	cxlBytes := func(label string) float64 {
		return sumLabel(`cxl/port/.+/rd_bytes`, label) + sumLabel(`cxl/port/.+/wr_bytes`, label)
	}
	return map[string]float64{
		"core.iters":                 iters,
		"core.processed":             sum(`core/.+/processed`),
		"core.idle_frac":             ratio(sum(`core/.+/idle_iters`), iters),
		"msgchan.sent":               sum(`chan/[^/]+/sent`),
		"msgchan.send_full":          sum(`chan/[^/]+/send_full`),
		"msgchan.rx_lat_p99_ns":      chanP99,
		"cache.hits":                 hits,
		"cache.misses":               misses,
		"cache.hit_frac":             ratio(hits, hits+misses),
		"cache.fill_waits":           sum(`cache/fill_waits`),
		"cache.prefetch_useful_frac": 1 - ratio(sum(`cache/prefetch_ignored`), sum(`cache/prefetch_issued`)),
		"cxl.msg_bytes_per_op":       perOp(cxlBytes("message")),
		"cxl.payload_bytes_per_op":   perOp(cxlBytes("payload")),
		"nic.packets":                sum(`nic\d+/rx_packets`) + sum(`nic\d+/tx_packets`),
		"nic.rx_no_desc":             sum(`nic\d+/rx_no_desc`),
		"nic.tx_ring_full":           sum(`nic\d+/tx_ring_full`),
		"netengine.tx_forwarded":     sum(`fe/tx_forwarded`),
		"netengine.rx_delivered":     sum(`fe/rx_delivered`),
		"netengine.tx_channel_full":  sum(`fe/tx_channel_full`),
		"netengine.buf_alloc_fails":  sum(`(be\d+|fe/inst/[^/]+)/buf_alloc_fails`),
		"storengine.reads":           sum(`storage-fe/reads`),
		"storengine.writes":          sum(`storage-fe/writes`),
		"storengine.mirror_writes":   sum(`storage-fe/mirror_writes`),
		"storengine.retries":         sum(`storage-fe/retries`),
		"storengine.io_errors":       sum(`storage-fe/vol/[^/]+/io_errors`),
		"ssd.ops":                    sum(`ssd\d+/reads`) + sum(`ssd\d+/writes`),
		"ssd.queue_full_rejects":     sum(`ssd\d+/queue_full_rejects`),
		"alloc.placements":           sum(`alloc/placements`),
		"alloc.migrations":           sum(`alloc/migrations`),
		"alloc.rebalances":           sum(`alloc/rebalances`),
		"alloc.failovers":            sum(`alloc/failovers`),
		"alloc.propose_retries":      sum(`alloc/recovery/propose_retries`),
		"raft.applied":               sum(`raft/\d+/applied`),
		"raft.elections":             sum(`raft/\d+/elections`),
		"faults.injected":            sum(`faults/[^/]+/injected`),
	}, chanN
}

// netLayer records the exported switch and stack counters of the pods and
// of the benchmark's clients.
func netLayer(r *rep, pods []*oasis.Pod, clients []*oasis.Client) {
	var fwd, flood, drop, udp int64
	for _, p := range pods {
		fwd += p.Switch.Forwarded
		flood += p.Switch.Flooded
		drop += p.Switch.Dropped
		for k := 0; k < p.Instances(); k++ {
			st := p.InstanceAt(k).Stack
			udp += st.RxNoSocket + st.RxParseErrors
		}
	}
	for _, c := range clients {
		udp += c.Stack.RxNoSocket + c.Stack.RxParseErrors
	}
	r.layer["netsw.forwarded"] = float64(fwd)
	r.layer["netsw.flooded"] = float64(flood)
	r.layer["netsw.dropped"] = float64(drop)
	r.layer["netstack.udp_dropped"] = float64(udp)
}

// spanLayer derives the benchmark-span timings of one traced run.
func spanLayer(tr *tracer) map[string]float64 {
	hostS := func(s span) float64 { return float64(s.HostNs[1]-s.HostNs[0]) / 1e9 }
	out := map[string]float64{}
	build := 0.0
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "setup" && s.Name != "Start" && s.Name != "PlaceInstance" {
			build += hostS(s)
		}
	}
	out["oasis.build_s"] = build
	start := 0.0
	for _, s := range tr.named("Start") {
		start += hostS(s)
	}
	out["oasis.start_s"] = start
	var place []float64
	for _, s := range tr.named("PlaceInstance") {
		place = append(place, hostS(s)*1e6)
	}
	out["oasis.place_us_p50"] = median(place)
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
