package main

import (
	"io"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/sim"
)

// hostagg-loopback is a real hostagg.Server on 127.0.0.1 with at most two
// receive workers, and one client per CPU up to two, each running
// back-to-back AllReduce calls in a closed loop. It is the only workload
// that leaves the simulator; its traffic crosses loopback, not a real link.
// One unit is one server and its clients (setup) and haRounds AllReduce
// calls per client; each call is one operation.
const (
	haMaxClients = 2
	haGrads      = 8192 // per AllReduce, as BenchmarkAllReduceUDP
	haBlockGrads = 1024
	haWindow     = 32
	haRounds     = 500 // per client per unit: 1000 operations, enough for a p99
	haVariants   = 4   // distinct seeded vectors each client cycles through
	haTimeout    = 5 * time.Second
)

type haInput struct {
	clients int
	vecs    [][haVariants][]int32 // [client][variant]
	sums    [haVariants][]int32   // element-wise sum over clients
}

func newHostaggLoopback(seed uint64) workload {
	in := &haInput{clients: min(haMaxClients, runtime.NumCPU())}
	in.vecs = make([][haVariants][]int32, in.clients)
	for v := range in.sums {
		in.sums[v] = make([]int32, haGrads)
	}
	for c := range in.vecs {
		rng := sim.NewRNG(seed, uint64(0x4A0+c))
		for v := range in.vecs[c] {
			vec := make([]int32, haGrads)
			for i := range vec {
				vec[i] = int32(rng.IntN(1<<16)) - 1<<15
				in.sums[v][i] += vec[i]
			}
			in.vecs[c][v] = vec
		}
	}
	return in
}

// build ignores the tracer: the calls this workload makes are the
// operations themselves, timed in every run.
func (in *haInput) build(*tracer) (rig, error) { return newHostaggRig(in) }

type haRig struct {
	in      *haInput
	server  *hostagg.Server
	clients []*hostagg.Client
}

func newHostaggRig(in *haInput) (*haRig, error) {
	s, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: in.clients,
		RecvWorkers:  min(2, runtime.NumCPU()),
		ReplayWindow: 64, // keeps retransmits idempotent
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	r := &haRig{in: in, server: s}
	for i := 0; i < in.clients; i++ {
		c, err := hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: s.Addr().String(), JobID: 1, SrcID: uint8(i), Window: haWindow,
			RetransmitEvery: 20 * time.Millisecond, // repairs datagrams loopback drops
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *haRig) run() outcome {
	outs := make([]outcome, len(r.clients))
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = r.drive(i)
		}()
	}
	wg.Wait()
	var o outcome
	for _, co := range outs {
		o.bytes += co.bytes
		o.attempted += co.attempted
		o.failed += co.failed
		o.ops = append(o.ops, co.ops...)
	}
	o.pkts = r.server.Stats().Packets
	return o
}

// drive runs client i's AllReduce calls and checks each against the
// element-wise sum. After a failed call the client stops: its peers' calls
// then fail too, within haTimeout, instead of every later call timing out.
func (r *haRig) drive(i int) outcome {
	o := outcome{attempted: haRounds, ops: make([]time.Duration, 0, haRounds)}
	c := r.clients[i]
	for round := 0; round < haRounds; round++ {
		v := round % haVariants
		start := time.Now()
		got, err := c.AllReduce(uint16(round+1), r.in.vecs[i][v], haBlockGrads, r.in.clients, haTimeout)
		o.ops = append(o.ops, time.Since(start))
		if err != nil {
			o.failed += haRounds - round
			return o
		}
		if slices.Equal(got, r.in.sums[v]) {
			o.bytes += 4 * haGrads
		} else {
			o.failed++
		}
	}
	return o
}

func (r *haRig) layers() map[string]float64 {
	st := r.server.Stats()
	l := map[string]float64{
		"hostagg.packets":     float64(st.Packets),
		"hostagg.duplicates":  float64(st.Duplicates),
		"hostagg.replays":     float64(st.ResultReplays),
		"hostagg.shed":        float64(st.Shed),
		"hostagg.blocks_sent": float64(len(r.clients) * haRounds * haGrads / haBlockGrads),
	}
	for _, c := range r.clients {
		cs := c.Stats()
		l["hostagg.retransmits"] += float64(cs.Retransmits)
		l["hostagg.nacks"] += float64(cs.Nacked)
	}
	return l
}

// close releases the unit's sockets; a finished unit has nothing left to
// report a close error to.
func (r *haRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.server.Close()
}
