package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"oasis"
)

// echoHeader is the request header: request id, then due time (ns).
const echoHeader = 16

// echoReq is one generated request.
type echoReq struct {
	due  oasis.Duration
	inst int
	size int
}

// echoSizes are the two payload sizes, drawn with equal odds: one
// message-bound, one payload-bound on the CXL path.
var echoSizes = [2]int{64, 1400}

// genEcho generates each client's requests from the seed: Poisson
// arrivals at rate/clients, a uniformly chosen instance, and a size.
func genEcho(seed int64, clients, insts int, rate float64, start, end oasis.Duration) [][]echoReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]echoReq, clients)
	for c := range out {
		for _, due := range poisson(rng, start, rate/float64(clients), end) {
			out[c] = append(out[c], echoReq{due: due, inst: rng.Intn(insts), size: echoSizes[rng.Intn(2)]})
		}
	}
	return out
}

// echoPayload writes request id's payload into b[:size].
func echoPayload(b []byte, id uint64, r echoReq) []byte {
	b = b[:r.size]
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(r.due))
	fillPattern(b[echoHeader:], id)
	return b
}

// checkEcho is the net-echo output check: a reply must carry a request id
// of this client that is not yet answered (done[k] == 0), and match that
// request's payload byte for byte. It returns the request index.
func checkEcho(reqs []echoReq, done []oasis.Duration, client int, reply, scratch []byte) (int, error) {
	if len(reply) < echoHeader {
		return 0, fmt.Errorf("net-echo: %d-byte reply is shorter than the header", len(reply))
	}
	id := binary.LittleEndian.Uint64(reply)
	k := int(id & 0xffffffff)
	if int(id>>32) != client || k >= len(reqs) {
		return 0, fmt.Errorf("net-echo: client %d got a reply for unknown request %#x", client, id)
	}
	if done[k] != 0 {
		return 0, fmt.Errorf("net-echo: request %#x answered twice", id)
	}
	if want := echoPayload(scratch, id, reqs[k]); !bytes.Equal(reply, want) {
		return 0, fmt.Errorf("net-echo: reply to request %#x differs from its request (%d vs %d bytes)", id, len(reply), len(want))
	}
	return k, nil
}

// echoServer returns a process that waits up to ready for inst to get a
// NIC and then echoes UDP datagrams on port 7. It reports a failure to
// start in *errp.
func echoServer(inst *oasis.Instance, ready oasis.Duration, errp *error) func(p *oasis.Proc) {
	return func(p *oasis.Proc) {
		if !inst.WaitReady(p, ready) {
			*errp = fmt.Errorf("instance %v never got a NIC", inst.IPAddr())
			return
		}
		conn, err := inst.Stack.ListenUDP(7)
		if err != nil {
			*errp = err
			return
		}
		for {
			dg := conn.Recv(p)
			if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
				return
			}
		}
	}
}

// runNetEcho is the datapath under open-loop load: one pod of 4 hosts,
// pooled NICs on hosts 0 and 1, 8 pooled instances round-robin over the
// hosts each running a UDP echo server, and 2 clients on the ToR switch.
func runNetEcho(seed int64, tiny bool, tr *tracer) (*rep, error) {
	const (
		hosts   = 4
		nics    = 2
		insts   = 8
		clients = 2
		rate    = 600e3 // aggregate requests per virtual second
		warmup  = 2 * time.Millisecond
		drain   = time.Millisecond
	)
	span := oasis.Duration(25 * time.Millisecond)
	if tiny {
		span = time.Millisecond
	}
	reqs := genEcho(seed, clients, insts, rate, warmup, warmup+span)

	t0 := time.Now()
	setup := tr.begin("setup", -1, 0)
	pod := oasis.NewPod(oasis.DefaultConfig())
	now := pod.Now
	hs := make([]*oasis.Host, hosts)
	for i := range hs {
		tr.call("AddHost", setup, now, func() { hs[i] = must(pod.AddHostErr()) })
	}
	for i := 0; i < nics; i++ {
		tr.call("AddNIC", setup, now, func() { must(pod.AddNICErr(hs[i], false)) })
	}
	is := make([]*oasis.Instance, insts)
	for i := range is {
		tr.call("AddInstance", setup, now, func() { is[i] = must(pod.AddInstanceErr(hs[i%hosts], oasis.IP(10, 0, 0, byte(10+i)))) })
	}
	cs := make([]*oasis.Client, clients)
	for i := range cs {
		tr.call("AddClient", setup, now, func() { cs[i] = must(pod.AddClientErr(oasis.IP(10, 0, 99, byte(1+i)))) })
	}
	tr.call("Start", setup, now, pod.Start)

	var runErr error
	for _, inst := range is {
		inst.RequestAllocation()
		pod.Go("echo-server", echoServer(inst, warmup, &runErr))
	}

	r := &rep{span: span, layer: map[string]float64{}}
	var late []int64
	flows := make([]*flowLog, clients*insts)
	for i := range flows {
		flows[i] = newFlowLog()
	}
	done := make([][]oasis.Duration, clients) // reply time per request, 0 if unanswered
	for ci, c := range cs {
		mine := reqs[ci]
		done[ci] = make([]oasis.Duration, len(mine))
		r.attempted += len(mine)
		conn := must(c.Stack.ListenUDP(0))
		c.Go("echo-client", func(p *oasis.Proc) {
			buf := make([]byte, echoSizes[1])
			for k, q := range mine {
				if d := q.due - p.Now(); d > 0 {
					p.Sleep(d)
				}
				late = append(late, int64(p.Now()-q.due))
				if err := conn.SendTo(p, is[q.inst].IPAddr(), 7, echoPayload(buf, uint64(ci)<<32|uint64(k), q)); err != nil {
					runErr = err
					return
				}
			}
		})
		c.Go("echo-reader", func(p *oasis.Proc) {
			scratch := make([]byte, echoSizes[1])
			for {
				dg := conn.Recv(p)
				k, err := checkEcho(mine, done[ci], ci, dg.Data, scratch)
				if err != nil {
					runErr = err
					return
				}
				done[ci][k] = p.Now()
				q := mine[k]
				r.lat = append(r.lat, int64(p.Now()-q.due))
				if k%requestSample == 0 {
					tr.request(uint64(ci)<<32|uint64(k), q.due, p.Now())
				}
			}
		})
	}
	tr.end(setup, pod.Now())
	r.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	run := tr.begin("run", -1, pod.Now())
	pod.Run(warmup + span + drain)
	tr.end(run, pod.Now())
	r.runS = time.Since(t1).Seconds()

	verify := tr.begin("verify", -1, pod.Now())
	defer tr.end(verify, pod.Now())
	r.snap = pod.Stats()
	pod.Shutdown()
	if runErr != nil {
		return nil, runErr
	}
	// Unanswered requests are failed ops; replay each flow's outcomes in
	// due order for its outage.
	for ci, mine := range reqs {
		for k, q := range mine {
			f := flows[ci*insts+q.inst]
			if done[ci][k] != 0 {
				f.ok(done[ci][k])
			} else {
				f.fail(q.due)
			}
		}
	}
	r.outage = worstOutage(flows, warmup+span+drain)
	r.late = len(late)
	r.layer["loadgen.late_us_p99"] = float64(percentile(late, 99)) / 1e3
	netLayer(r, []*oasis.Pod{pod}, cs)
	return r, nil
}
