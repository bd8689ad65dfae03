package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"github.com/trioml/triogo/internal/apps/netrpc"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

// rpc-cache runs closed-loop netrpc clients against the PFE-resident cache,
// with the origin behind a slow link. A hot set that fits the cache gives
// hits; a cold tail larger than the cache keeps claims, adoptions and (on
// slot collisions) bypasses happening, while REF-flag aging frees the slots
// cold entries held. It loads microcode dispatch, hasheng and smem scalar
// records, with reads and writes on the same layers.
//
// Clients retransmit a call whose reply is overdue, as UDP RPC clients do:
// the cache drops a reply to a bypassed request if another client's claim
// of the same key was served while it was in flight (the pending-only
// adoption gate takes it for a duplicate). Each retransmission is counted
// and reported, so the lost replies stay visible.
const (
	rpcClients     = 8
	rpcRequests    = 1000 // per client per unit
	rpcSlots       = 256
	rpcRespBytes   = 32
	rpcHotKeys     = 32
	rpcColdKeys    = 4096
	rpcHotProb     = 0.75
	rpcOriginDelay = 10 * sim.Microsecond // one way
	rpcAgePeriod   = 100 * sim.Microsecond
	// rpcTimeout is how long a client waits for a reply before it sends the
	// call again, 50 origin round trips; the timer sweep runs as often.
	rpcTimeout = 1 * sim.Millisecond
)

// rpcKey is one RPC the clients call and the reply it must get.
type rpcKey struct {
	method uint16
	args   []byte
	want   []byte // netrpc.DefaultCompute over the padded request cell
}

type rpcInput struct {
	seed uint64
	keys []rpcKey // the hot set first
}

func newRPCCache(seed uint64) workload {
	in := &rpcInput{seed: seed}
	// Hot keys take pairwise distinct slots, so they all fit the cache.
	used := map[uint64]bool{}
	start := uint16(1 + sim.NewRNG(seed, 0x40C).IntN(1<<14))
	for m := start; len(in.keys) < rpcHotKeys+rpcColdKeys; m++ {
		k := rpcKey{method: m, args: binary.BigEndian.AppendUint64(nil, uint64(m)*0x51ED_270B^seed)}
		if len(in.keys) < rpcHotKeys {
			slot := netrpc.RPCKey(m, k.args) & (rpcSlots - 1)
			if used[slot] {
				continue
			}
			used[slot] = true
		}
		cell := make([]byte, rpcRespBytes)
		copy(cell, k.args)
		k.want = netrpc.DefaultCompute(m, cell, rpcRespBytes)
		in.keys = append(in.keys, k)
	}
	return in
}

func (in *rpcInput) build(tr *tracer) (rig, error) { return newRPCRig(in, tr) }

type rpcRig struct {
	in      *rpcInput
	tr      *tracer
	eng     *sim.Engine
	router  *trio.Router
	svc     *netrpc.Service
	origin  *netrpc.Origin
	clients []*rpcClient
	links   []*netsim.Link
	pending int        // replies still owed
	resent  int        // calls sent again after rpcTimeout
	lat     sim.Sample // virtual request→reply, µs
	doneAt  sim.Time
	out     outcome
}

// rpcClient calls one RPC at a time, issuing the next when the reply is in.
type rpcClient struct {
	rig      *rpcRig
	c        netrpc.Client
	up       *netsim.Link
	rng      *sim.RNG
	sent     int
	key      *rpcKey // awaited, nil when idle
	rpcID    uint64
	sentAt   sim.Time // first send of the awaited call
	lastSend sim.Time // latest send, retransmissions included
	sentHost time.Time
}

func newRPCRig(in *rpcInput, tr *tracer) (*rpcRig, error) {
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1, PFE: trioml.RecommendedPFEConfig()})
	p := router.PFE(0)
	svc, err := netrpc.Install(p, netrpc.Config{Slots: rpcSlots, RespBytes: rpcRespBytes, AgePeriod: rpcAgePeriod})
	if err != nil {
		return nil, err
	}
	tr.wrapApp(p, svc.App, spanMicrocode)
	r := &rpcRig{in: in, tr: tr, eng: eng, router: router, svc: svc, origin: &netrpc.Origin{},
		pending: rpcClients * rpcRequests}
	r.out.ops = make([]time.Duration, 0, rpcClients*rpcRequests)

	serverPort := p.Cfg.NumPorts - 1
	slow := netsim.DefaultLinkConfig()
	slow.Propagation = rpcOriginDelay
	fromOrigin := netsim.NewLink(eng, slow, func(f []byte, _ sim.Time) { r.inject(serverPort, f) })
	toOrigin := netsim.NewLink(eng, slow, func(f []byte, _ sim.Time) {
		tr.begin(spanOrigin)
		resp := r.origin.Handle(f)
		tr.end()
		if resp != nil {
			tr.send(fromOrigin, resp)
		}
	})
	router.AttachExternal(0, serverPort, func(_ int, f []byte, _ sim.Time) { tr.send(toOrigin, f) })
	r.links = append(r.links, fromOrigin, toOrigin)

	// Client i sits on port i: the cache replies by forwarding to port client_id.
	for id := 1; id <= rpcClients; id++ {
		c := &rpcClient{rig: r, rng: sim.NewRNG(in.seed, uint64(id)), c: netrpc.Client{
			ID: uint16(id), RespBytes: rpcRespBytes,
			Spec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, byte(id)}, DstIP: [4]byte{10, 0, 0, 200}, SrcPort: 7000},
		}}
		c.up = netsim.NewLink(eng, netsim.DefaultLinkConfig(), func(f []byte, _ sim.Time) { r.inject(id, f) })
		down := netsim.NewLink(eng, netsim.DefaultLinkConfig(), c.onFrame)
		router.AttachExternal(0, id, func(_ int, f []byte, _ sim.Time) { tr.send(down, f) })
		r.links = append(r.links, c.up, down)
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// inject hands a frame to the PFE, one reorder flow per port.
func (r *rpcRig) inject(port int, f []byte) {
	r.tr.begin(spanInject)
	r.router.Inject(0, port, uint64(port), f)
	r.tr.end()
}

func (r *rpcRig) run() outcome {
	for _, c := range r.clients {
		c.call()
	}
	r.eng.Every(rpcTimeout, rpcTimeout, r.retransmit)
	deadline := sim.Time(rpcRequests)*100*rpcOriginDelay + sim.Second
	for r.pending > 0 && r.tr.step(r.eng) && r.eng.Now() <= deadline {
	}
	r.svc.Timers.Stop()
	r.out.attempted = rpcClients * rpcRequests
	r.out.failed += r.pending
	r.out.pkts = r.router.PFE(0).Stats().Dispatched
	r.out.model = model{
		finishUS: r.doneAt.Microseconds(), latencyUS: r.lat.Mean(), latencyP99US: r.lat.Percentile(99),
		events: r.eng.Executed(), dispatched: r.out.pkts,
	}
	return r.out
}

func (c *rpcClient) call() {
	r := c.rig
	if c.sent == rpcRequests {
		return
	}
	c.sent++
	c.sentHost = time.Now()
	keys := r.in.keys
	if c.rng.Float64() < rpcHotProb {
		c.key = &keys[c.rng.IntN(rpcHotKeys)]
	} else {
		c.key = &keys[rpcHotKeys+c.rng.IntN(rpcColdKeys)]
	}
	c.rpcID = netrpc.RPCKey(c.key.method, c.key.args)
	r.tr.begin(spanBuild)
	frame := c.c.Request(c.key.method, c.key.args)
	r.tr.end()
	c.sentAt = r.eng.Now()
	c.lastSend = c.sentAt
	r.tr.send(c.up, frame)
}

// retransmit sends every call whose reply is overdue once more.
func (r *rpcRig) retransmit() {
	now := r.eng.Now()
	for _, c := range r.clients {
		if c.key == nil || now-c.lastSend < rpcTimeout {
			continue
		}
		r.resent++
		c.lastSend = now
		r.tr.send(c.up, c.c.Request(c.key.method, c.key.args))
	}
}

func (c *rpcClient) onFrame(frame []byte, at sim.Time) {
	r := c.rig
	r.tr.begin(spanDecode)
	h, payload, err := netrpc.ParseResponse(frame)
	r.tr.end()
	// A reply for an earlier call of the same RPC answers this one too.
	if err != nil || c.key == nil || h.RPCID != c.rpcID {
		return
	}
	r.out.ops = append(r.out.ops, time.Since(c.sentHost))
	r.lat.Add(float64(at-c.sentAt) / float64(sim.Microsecond))
	if bytes.Equal(payload, c.key.want) {
		r.out.bytes += uint64(len(payload))
	} else {
		r.out.failed++
	}
	c.key = nil
	r.pending--
	r.doneAt = at
	c.call()
}

func (r *rpcRig) layers() map[string]float64 {
	st := r.svc.Stats()
	l := map[string]float64{
		"sim.events":          float64(r.eng.Executed()),
		"netrpc.requests":     float64(st.Requests()),
		"netrpc.hits":         float64(st.Hits),
		"netrpc.claims":       float64(st.Claims),
		"netrpc.bypass":       float64(st.Bypass),
		"netrpc.origin_calls": float64(r.origin.Served),
		"netrpc.retransmits":  float64(r.resent),
	}
	addPFECounts(l, r.router.PFE(0))
	addLinkCounts(l, r.links...)
	k := r.in.keys[0]
	l["packet.build_alloc_bytes"] = allocBytesPer(func() []byte { return r.clients[0].c.Request(k.method, k.args) })
	return l
}

func (r *rpcRig) close() {}
