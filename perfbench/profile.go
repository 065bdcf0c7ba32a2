package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages whose CPU time is reported as <layer>.cpu_s.
// gc collects garbage-collector work wherever it runs; other takes every
// sample no layer claims, so the shares sum to the profile's total.
var cpuLayers = []string{
	"sim", "core", "msgchan", "cache", "cxl", "nic", "netsw", "netstack", "netengine",
	"storengine", "ssd", "allocator", "raft", "oasis", "goruntime", "gc", "other",
}

// gcRoots are runtime frames under which a sample is garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.GC", "runtime.sweepone", "runtime.deductSweepCredit",
}

// layerOf maps a profiled function name to its layer by the flat (leaf)
// frame's package.
func layerOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	pkg := head
	if dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	case pkg == "oasis":
		return "oasis"
	case strings.HasPrefix(pkg, "oasis/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "oasis/internal/"), "/")
		for _, l := range cpuLayers {
			if l == mod {
				return l
			}
		}
	}
	return "other"
}

// cpuByLayer rolls a gzipped pprof CPU profile up into seconds of CPU
// time per layer: the flat time of each sample's leaf frame, except that
// samples under a garbage-collector root count as gc.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) <= p.cpuIndex {
			continue
		}
		layer := ""
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				name := p.funcs[fid]
				for _, root := range gcRoots {
					if name == root {
						layer = "gc"
					}
				}
			}
		}
		if layer == "" {
			if fids := p.locs[s.locs[0]]; len(fids) > 0 {
				layer = layerOf(p.funcs[fids[0]])
			} else {
				layer = "other"
			}
		}
		out[layer] += float64(s.values[p.cpuIndex]) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile.proto the roll-up needs.
type profile struct {
	samples  []sample
	locs     map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]string   // function id -> name
	cpuIndex int                 // index of the cpu/nanoseconds value
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the uncompressed profile.proto message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	var types [][2]uint64 // sample types: (type, unit) string indexes
	funcNames := map[uint64]uint64{}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := fields(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := fields(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNames {
		if si < uint64(len(strs)) {
			p.funcs[id] = strs[si]
		}
	}
	p.cpuIndex = -1
	for i, t := range types {
		if t[0] < uint64(len(strs)) && t[1] < uint64(len(strs)) && strs[t[0]] == "cpu" && strs[t[1]] == "nanoseconds" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the protobuf message b, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (sub != nil) or not.
func varints(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
