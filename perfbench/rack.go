package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"oasis"
	"oasis/internal/faults"
)

// Rack shape and timeline (virtual time).
const (
	rackPods        = 8
	rackHostsPerPod = 64
	rackNICsPerPod  = 3
	rackInstPerPod  = 6
	rackFlowsPerPod = 3
	rackHotspot     = 6  // extra instances piled onto pod 0
	rackVolBlocks   = 64 // volume carried by the first migrated instance
	rackFailPod     = 1  // pod whose NIC link goes down

	// The allocators' first raft election completes at about 15 ms; no
	// instance is allocated a NIC before it. Flows start once their
	// instance is ready.
	rackReadyBy  = 18 * time.Millisecond // every instance must be ready by now
	rackRebalAt  = 16 * time.Millisecond // rebalancer starts
	rackFailAt   = 17 * time.Millisecond // NIC link down
	rackSpan     = 21 * time.Millisecond // end of the Run phase
	rackEchoWait = 200 * time.Microsecond
	// rackVerifyBudget is the virtual time allowed for reading the migrated
	// volume back after the span. It is run in steps, so the idle rack is
	// not polled for the rest of the budget once the read-back is done.
	rackVerifyBudget = 5 * time.Millisecond
	rackVerifyStep   = 100 * time.Microsecond
	// The PHY debounce is shortened from the paper's 35 ms so the whole
	// failover fits in a short span; fig13 keeps the paper value.
	rackDebounce = time.Millisecond
)

// migration is the outcome of one RebalanceOnce call.
type migration struct {
	ip     string
	from   int
	moved  bool
	failed bool
}

// checkRack is the rack output check on the final placement: every
// instance placed or piled on must exist in exactly one pod and be
// allocated a NIC, and every migration must have completed (the instance
// is now on another pod) or aborted with the source intact.
func checkRack(want []string, where map[string][]int, ready map[string]bool, migs []migration) error {
	for _, ip := range want {
		switch pods := where[ip]; {
		case len(pods) != 1:
			return fmt.Errorf("rack: instance %s is on %d pods %v, want exactly 1", ip, len(pods), pods)
		case !ready[ip]:
			return fmt.Errorf("rack: instance %s on pod %d ended without a NIC", ip, pods[0])
		}
	}
	for _, m := range migs {
		pods := where[m.ip]
		if m.moved && len(pods) == 1 && pods[0] == m.from {
			return fmt.Errorf("rack: migration of %s reported done but it is still on pod %d", m.ip, m.from)
		}
		if m.failed && (len(pods) != 1 || pods[0] != m.from) {
			return fmt.Errorf("rack: aborted migration of %s left it on pods %v, want source pod %d", m.ip, pods, m.from)
		}
	}
	return nil
}

// writeLedger is the migrated volume's writer record: the last acked write
// per LBA, plus the writes attempted after it that failed (a failed write
// promises nothing, but may still have landed).
type writeLedger struct {
	acked []uint64
	since [][]uint64
}

// checkBlock is the migration output check: the block read back on the
// destination must be the last acked write, or a later unacked attempt.
func (l *writeLedger) checkBlock(lba uint64, data, scratch []byte) error {
	if bytes := fillBlock(scratch, 0, lba, l.acked[lba]); string(data) == string(bytes) {
		return nil
	}
	for _, s := range l.since[lba] {
		if string(data) == string(fillBlock(scratch, 0, lba, s)) {
			return nil
		}
	}
	got := uint64(0)
	if len(data) >= 8 {
		got = binary.LittleEndian.Uint64(data)
	}
	return fmt.Errorf("rack: migrated volume lba %d read back write %d, want acked write %d", lba, got, l.acked[lba])
}

// runRack is 512 mostly idle hosts plus the control plane: 8 pods of 64
// hosts in per-pod partitioned execution, raft-replicated allocators,
// least-loaded placement, a hot spot drained by migrations (the first one
// carrying a written volume), light echo flows, and a NIC failover.
func runRack(seed int64, tiny bool, tr *tracer) (*rep, error) {
	pods, hostsPerPod := rackPods, rackHostsPerPod
	if tiny {
		pods, hostsPerPod = 2, 4
	}
	rng := rand.New(rand.NewSource(seed))

	t0 := time.Now()
	setup := tr.begin("setup", -1, 0)
	c := oasis.NewPartitionedCluster()
	now := c.Now
	clients := make([]*oasis.Client, pods*rackFlowsPerPod)
	var ssd0 uint16 // pod 0's SSD, which holds the migrated volume
	for i := 0; i < pods; i++ {
		cfg := oasis.DefaultConfig()
		// No rack host touches much memory: 256 MiB of pool per pod and
		// 64 MiB of local DRAM per host (the default 1 GiB would cost 6 MiB
		// of page table per host, 3 GiB of host memory for the rack).
		cfg.PoolBytes = 256 << 20
		cfg.Host.LocalMemBytes = 64 << 20
		cfg.RaftReplicas = 3
		cfg.NIC.LinkDebounce = rackDebounce
		var p *oasis.Pod
		tr.call("AddPod", setup, now, func() { p = must(c.AddPodErr(cfg)) })
		for h := 0; h < hostsPerPod; h++ {
			tr.call("AddHost", setup, now, func() { must(p.AddHostErr()) })
		}
		for n := 0; n < rackNICsPerPod; n++ {
			// The last NIC is the pod's reserved backup (§3.3.3).
			tr.call("AddNIC", setup, now, func() { must(p.AddNICErr(p.Hosts[hostsPerPod-1-n], n == rackNICsPerPod-1)) })
		}
		tr.call("AddSSD", setup, now, func() {
			if d := must(p.AddSSDErr(p.Hosts[hostsPerPod-1], 1<<16)); i == 0 {
				ssd0 = d.ID
			}
		})
		for f := 0; f < rackFlowsPerPod; f++ {
			tr.call("AddClient", setup, now, func() {
				clients[i*rackFlowsPerPod+f] = must(p.AddClientErr(oasis.IP(10, byte(i), 99, byte(1+f))))
			})
		}
	}
	tr.call("Start", setup, now, c.Start)

	var want []string
	var all []*oasis.Instance
	for i := 0; i < pods*rackInstPerPod; i++ {
		ip := oasis.IP(10, 200, byte(i/200), byte(10+i%200))
		tr.call("PlaceInstance", setup, now, func() { all = append(all, must(c.PlaceInstanceErr(ip))) })
		want = append(want, ip.String())
	}
	p0 := c.Pod(0)
	var hot *oasis.Instance
	for i := 0; i < rackHotspot; i++ {
		ip := oasis.IP(10, 201, 0, byte(10+i))
		tr.call("AddInstance", setup, now, func() { hot = must(p0.AddInstanceErr(p0.Hosts[i%4], ip)) })
		all = append(all, hot)
		want = append(want, ip.String())
	}
	// The newest instance on pod 0 migrates first; it carries the volume.
	var vol interface {
		WaitReady(p *oasis.Proc, timeout oasis.Duration) bool
		Write(p *oasis.Proc, lba uint64, data []byte) error
	}
	tr.call("AddVolume", setup, now, func() { vol = must(p0.AddVolumeErr(hot, ssd0, rackVolBlocks)) })
	// The switch port of the pod's first NIC goes down, as in fig13: frames
	// are lost until the link status (after the PHY debounce) triggers the
	// failover. A nic-link-down fault would not do: it drops the NIC's
	// status register at once while the switch port keeps forwarding, so
	// no op would fail.
	pl := must(faults.ParsePlan(fmt.Sprintf("plan rack seed=%d\n%v port-flap pod%d/nic1 heal=%v\n",
		seed, rackFailAt, rackFailPod%pods, rackSpan)))
	tr.call("RunFaultPlan", setup, now, func() { must(0, c.RunFaultPlan(pl)) })
	for _, inst := range all {
		inst.RequestAllocation()
	}

	// Each flow, and the writer, runs on its pod's partition and keeps its
	// own record; they are merged after the run.
	type flow struct {
		log       *flowLog
		start     oasis.Duration // first op's due time
		attempted int
		lat       []int64
		err       error
	}
	flows := make([]*flow, pods*rackFlowsPerPod+1)
	for i := 0; i < pods; i++ {
		pod := c.Pod(i)
		for f := 0; f < rackFlowsPerPod; f++ {
			fid := i*rackFlowsPerPod + f
			fl := &flow{log: newFlowLog()}
			flows[fid] = fl
			inst, client := pod.InstanceAt(f), clients[fid]
			// Seeded think times and payload sizes: one echo in four
			// carries 1400 B, the rest 64 B.
			gaps, sizes := make([]oasis.Duration, 256), make([]int, 256)
			for k := range gaps {
				gaps[k] = oasis.Duration(10+rng.Intn(21)) * time.Microsecond
				sizes[k] = echoSizes[min(1, rng.Intn(4)/3)]
			}
			c.GoPod(i, "rack-echo", echoServer(inst, rackReadyBy, &fl.err))
			client.Go("rack-client", func(p *oasis.Proc) {
				conn, err := client.Stack.ListenUDP(0)
				if err != nil {
					fl.err = err
					return
				}
				buf := make([]byte, echoSizes[1])
				scratch := make([]byte, echoSizes[1])
				recv := func(d oasis.Duration) ([]byte, bool) {
					dg, ok := conn.RecvTimeout(p, d)
					return dg.Data, ok
				}
				if !inst.WaitReady(p, rackReadyBy) {
					return
				}
				fl.start = p.Now()
				for k := 0; p.Now() < rackSpan-rackEchoWait; k++ {
					id := uint64(fid)<<32 | uint64(k)
					q := echoReq{due: p.Now(), size: sizes[k%len(sizes)]}
					fl.attempted++
					answered := false
					if conn.SendTo(p, inst.IPAddr(), 7, echoPayload(buf, id, q)) == nil {
						answered, err = awaitEcho(p, recv, id, q, q.due+rackEchoWait, scratch)
						if err != nil {
							fl.err = err
							return
						}
					}
					if answered {
						fl.log.ok(p.Now())
						fl.lat = append(fl.lat, int64(p.Now()-q.due))
					} else {
						fl.log.fail(q.due)
					}
					p.Sleep(gaps[k%len(gaps)])
				}
			})
		}
	}

	// The volume writer: seeded LBAs, one write every 20 µs, until the
	// migration freezes the source volume and takes it away.
	led := &writeLedger{acked: make([]uint64, rackVolBlocks), since: make([][]uint64, rackVolBlocks)}
	lbas := make([]uint64, 1024)
	for k := range lbas {
		lbas[k] = uint64(rng.Intn(rackVolBlocks))
	}
	wr := &flow{log: newFlowLog()}
	flows[len(flows)-1] = wr
	c.GoPod(0, "rack-writer", func(p *oasis.Proc) {
		if !vol.WaitReady(p, rackReadyBy) {
			wr.err = errors.New("rack: hot-spot volume never became ready")
			return
		}
		buf := make([]byte, blockSize)
		for seq := uint64(1); p.Now() < rackSpan; seq++ {
			lba := lbas[int(seq)%len(lbas)]
			t := p.Now()
			if wr.attempted == 0 {
				wr.start = t
			}
			wr.attempted++
			if err := vol.Write(p, lba, fillBlock(buf, 0, lba, seq)); err != nil {
				// Frozen or gone: the migration took the volume. The
				// writer stops; its blackout is Cluster.LastBlackout.
				led.since[lba] = append(led.since[lba], seq)
				return
			}
			led.acked[lba] = seq
			led.since[lba] = led.since[lba][:0]
			wr.log.ok(p.Now())
			wr.lat = append(wr.lat, int64(p.Now()-t))
			p.Sleep(20 * time.Microsecond)
		}
	})

	// The balancer drains pod 0, the hot spot: each call migrates pod 0's
	// newest instance to the least-loaded pod, until the rack is even.
	var migs []migration
	var migSim float64 // virtual ms spent in RebalanceOnce calls
	c.Go("rack-balancer", func(p *oasis.Proc) {
		p.Sleep(rackRebalAt)
		for k := 0; k < 2*rackHotspot; k++ {
			victim := p0.InstanceAt(p0.Instances() - 1).IPAddr().String()
			t := p.Now()
			sp := tr.begin("RebalanceOnce", -1, t)
			inst, err := c.RebalanceOnce(p, 1.2)
			tr.end(sp, p.Now())
			if inst == nil && err == nil {
				return
			}
			migSim += float64(p.Now()-t) / 1e6
			migs = append(migs, migration{ip: victim, from: 0, moved: err == nil, failed: err != nil})
			if err != nil {
				return
			}
		}
	})
	tr.end(setup, c.Now())
	setupS := time.Since(t0).Seconds()

	t1 := time.Now()
	run := tr.begin("run", -1, c.Now())
	c.Run(rackSpan)
	tr.end(run, c.Now())
	runS := time.Since(t1).Seconds()

	verify := tr.begin("verify", -1, c.Now())
	defer func() { tr.end(verify, c.Now()); c.Shutdown() }()
	r := &rep{setupS: setupS, runS: runS, layer: map[string]float64{}}
	logs := make([]*flowLog, len(flows))
	first := oasis.Duration(rackSpan)
	for i, fl := range flows {
		if fl.err != nil {
			return nil, fl.err
		}
		if fl.attempted > 0 {
			first = min(first, fl.start)
		}
		r.attempted += fl.attempted
		r.lat = append(r.lat, fl.lat...)
		logs[i] = fl.log
	}
	where := map[string][]int{}
	ready := map[string]bool{}
	insts := map[string]*oasis.Instance{}
	for i, pod := range c.Pods() {
		for k := 0; k < pod.Instances(); k++ {
			inst := pod.InstanceAt(k)
			ip := inst.IPAddr().String()
			where[ip] = append(where[ip], i)
			ready[ip] = inst.IsPooled() && inst.Port.Ready()
			insts[ip] = inst
		}
	}
	if len(migs) == 0 || !migs[0].moved {
		return nil, fmt.Errorf("rack: the volume-carrying instance was not migrated (%d migrations)", len(migs))
	}
	if err := checkRack(want, where, ready, migs); err != nil {
		return nil, err
	}
	// Read the migrated volume back on its destination pod.
	moved := insts[migs[0].ip]
	dst := where[migs[0].ip][0]
	var checkErr error
	verified := false
	c.GoPod(dst, "rack-verify", func(p *oasis.Proc) {
		nv := moved.Host().SFE.Volume(moved.IPAddr())
		if nv == nil {
			checkErr = fmt.Errorf("rack: migrated instance %s has no volume on pod %d", migs[0].ip, dst)
			return
		}
		scratch := make([]byte, blockSize)
		const chunk = 16
		for lba := uint64(0); lba < rackVolBlocks; lba += chunk {
			data, err := nv.Read(p, lba, chunk)
			if err != nil {
				checkErr = fmt.Errorf("rack: read-back of the migrated volume: %w", err)
				return
			}
			for b := uint64(0); b < chunk; b++ {
				if err := led.checkBlock(lba+b, data[b*blockSize:(b+1)*blockSize], scratch); err != nil {
					checkErr = err
					return
				}
			}
		}
		verified = true
	})
	for t := oasis.Duration(rackSpan); !verified && checkErr == nil && t < rackSpan+rackVerifyBudget; {
		t += rackVerifyStep
		c.Run(t)
	}
	if checkErr != nil {
		return nil, checkErr
	}
	if !verified {
		return nil, fmt.Errorf("rack: read-back of the migrated volume did not finish in %v", rackVerifyBudget)
	}
	r.snap = c.Stats()
	r.span = rackSpan - first
	r.outage = worstOutage(logs, rackSpan)
	netLayer(r, c.Pods(), clients)
	r.layer["oasis.blackout_us"] = float64(c.LastBlackout) / 1e3
	r.layer["oasis.migrate_sim_ms"] = migSim
	return r, nil
}

// awaitEcho waits until deadline for the reply to request id, received
// with recv, and checks it byte for byte. Late replies to this flow's
// earlier requests, which timed out, are checked against their own header
// and dropped.
func awaitEcho(p *oasis.Proc, recv func(d oasis.Duration) ([]byte, bool), id uint64, q echoReq, deadline oasis.Duration, scratch []byte) (bool, error) {
	for {
		wait := deadline - p.Now()
		if wait <= 0 {
			return false, nil
		}
		data, ok := recv(wait)
		if !ok {
			return false, nil
		}
		if len(data) < echoHeader || len(data) > len(scratch) {
			return false, fmt.Errorf("rack: %d-byte reply to request %#x", len(data), id)
		}
		gotID := binary.LittleEndian.Uint64(data)
		want := q
		if gotID != id {
			want = echoReq{due: oasis.Duration(binary.LittleEndian.Uint64(data[8:])), size: len(data)}
		}
		if gotID>>32 != id>>32 || gotID > id || string(data) != string(echoPayload(scratch, gotID, want)) {
			return false, fmt.Errorf("rack: reply %#x differs from request %#x", gotID, id)
		}
		if gotID == id {
			return true, nil
		}
	}
}
