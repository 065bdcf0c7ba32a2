package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"oasis"
)

const blockSize = 4096

// fillBlock writes the content of write number seq to (vol, lba) into b;
// seq 0 is the never-written block, all zeros.
func fillBlock(b []byte, vol int, lba, seq uint64) []byte {
	b = b[:blockSize]
	if seq == 0 {
		clear(b)
		return b
	}
	binary.LittleEndian.PutUint64(b, seq)
	binary.LittleEndian.PutUint64(b[8:], lba|uint64(vol)<<48)
	fillPattern(b[16:], seq<<24^lba<<8^uint64(vol))
	return b
}

// ledger is one worker's record of the last acked write on each LBA it
// owns. Workers own disjoint LBAs, so the last acked write on an LBA is
// exactly what a later read of it must return.
type ledger struct {
	vol   int
	first uint64   // first owned LBA
	seq   []uint64 // last acked write per owned LBA, 0 if never written
}

// checkRead is the storage output check: data read from lba must be the
// last acked write to it, byte for byte.
func (l *ledger) checkRead(lba uint64, data, scratch []byte) error {
	seq := l.seq[lba-l.first]
	if !bytes.Equal(data, fillBlock(scratch, l.vol, lba, seq)) {
		got := uint64(0)
		if len(data) >= 8 {
			got = binary.LittleEndian.Uint64(data)
		}
		return fmt.Errorf("storage: volume %d lba %d read back write %d, want last acked write %d", l.vol, lba, got, seq)
	}
	return nil
}

// runStorageRW is pooled storage with writes beside reads: one pod of 3
// hosts, 2 pooled SSDs plus a backup SSD (so every write is mirrored), 4
// instances each with a volume on an SSD of another host, and a closed
// loop of 8 outstanding 4 KiB I/Os per volume, 70 % reads.
func runStorageRW(seed int64, tiny bool, tr *tracer) (*rep, error) {
	const (
		hosts      = 3
		insts      = 4
		workers    = 8 // outstanding I/Os per volume
		lbasPer    = 64
		readPct    = 70
		volBlocks  = workers * lbasPer
		ssdBlocks  = 1 << 16
		readyLimit = 5 * time.Millisecond
	)
	opsPer := 300 // per worker
	if tiny {
		opsPer = 20
	}

	t0 := time.Now()
	setup := tr.begin("setup", -1, 0)
	pod := oasis.NewPod(oasis.DefaultConfig())
	now := pod.Now
	hs := make([]*oasis.Host, hosts)
	for i := range hs {
		tr.call("AddHost", setup, now, func() { hs[i] = must(pod.AddHostErr()) })
	}
	// SSDs on hosts 1 and 2, the backup on host 0.
	var ssdOn [hosts]uint16
	for h := 1; h < hosts; h++ {
		tr.call("AddSSD", setup, now, func() { ssdOn[h] = must(pod.AddSSDErr(hs[h], ssdBlocks)).ID })
	}
	tr.call("AddBackupSSD", setup, now, func() { must(pod.AddBackupSSDErr(hs[0], ssdBlocks)) })
	type volume interface {
		WaitReady(p *oasis.Proc, timeout oasis.Duration) bool
		Read(p *oasis.Proc, lba uint64, nblocks int) ([]byte, error)
		Write(p *oasis.Proc, lba uint64, data []byte) error
	}
	vols := make([]volume, insts)
	for i := range vols {
		h := i % hosts
		ssd := ssdOn[1+(h+i)%2]
		if h != 0 && ssd == ssdOn[h] {
			ssd = ssdOn[3-h]
		}
		var inst *oasis.Instance
		tr.call("AddInstance", setup, now, func() { inst = must(pod.AddInstanceErr(hs[h], oasis.IP(10, 0, 0, byte(10+i)))) })
		tr.call("AddVolume", setup, now, func() { vols[i] = must(pod.AddVolumeErr(inst, ssd, volBlocks)) })
	}
	tr.call("Start", setup, now, pod.Start)

	r := &rep{layer: map[string]float64{}}
	var (
		runErr  error
		started oasis.Duration = -1 // first worker's start
		end     oasis.Duration      // last worker's finish
		left    = insts * workers
	)
	flows := make([]*flowLog, insts)
	for v := range vols {
		flows[v] = newFlowLog()
		for w := 0; w < workers; w++ {
			vol := vols[v]
			l := &ledger{vol: v, first: uint64(w * lbasPer), seq: make([]uint64, lbasPer)}
			rng := rand.New(rand.NewSource(seed ^ int64(v*workers+w+1)*0x5DEECE66D))
			pod.Go("io-worker", func(p *oasis.Proc) {
				defer func() {
					if left--; left == 0 {
						end = p.Now()
						pod.Shutdown()
					}
				}()
				if !vol.WaitReady(p, readyLimit) {
					runErr = fmt.Errorf("storage: volume %d never became ready", v)
					return
				}
				if started < 0 {
					started = p.Now()
				}
				buf := make([]byte, blockSize)
				scratch := make([]byte, blockSize)
				seq := uint64(w) << 32
				for k := 0; k < opsPer; k++ {
					lba := l.first + uint64(rng.Intn(lbasPer))
					t := p.Now()
					r.attempted++
					if rng.Intn(100) < readPct {
						data, err := vol.Read(p, lba, 1)
						if err != nil {
							flows[v].fail(t)
							continue
						}
						if err := l.checkRead(lba, data, scratch); err != nil {
							runErr = err
							return
						}
					} else {
						seq++
						if err := vol.Write(p, lba, fillBlock(buf, v, lba, seq)); err != nil {
							flows[v].fail(t)
							continue
						}
						l.seq[lba-l.first] = seq
					}
					flows[v].ok(p.Now())
					r.lat = append(r.lat, int64(p.Now()-t))
					if k%requestSample == 0 {
						tr.request(uint64(v)<<48|uint64(w)<<32|uint64(k), t, p.Now())
					}
				}
				// Read-back: every owned LBA must hold its last acked write.
				for i := range l.seq {
					lba := l.first + uint64(i)
					data, err := vol.Read(p, lba, 1)
					if err != nil {
						runErr = fmt.Errorf("storage: read-back of volume %d lba %d: %w", v, lba, err)
						return
					}
					if err := l.checkRead(lba, data, scratch); err != nil {
						runErr = err
						return
					}
				}
			})
		}
	}
	tr.end(setup, pod.Now())
	r.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	run := tr.begin("run", -1, pod.Now())
	pod.Run(10 * time.Second)
	tr.end(run, end)
	r.runS = time.Since(t1).Seconds()

	verify := tr.begin("verify", -1, end)
	defer tr.end(verify, end)
	r.snap = pod.Stats()
	if runErr != nil {
		return nil, runErr
	}
	if left != 0 {
		return nil, fmt.Errorf("storage: %d workers still running at %v", left, end)
	}
	r.span = end - started
	netLayer(r, []*oasis.Pod{pod}, nil)
	r.outage = worstOutage(flows, end)
	return r, nil
}
