// Package trio assembles Packet Forwarding Engines and the interconnection
// fabric into a complete router in the style of Juniper's MX-series chassis
// (Fig. 1a of the paper): external ports attach servers or other devices to
// individual PFEs; internal fabric connections let PFEs exchange packets
// directly, which is what hierarchical aggregation (§4) rides on.
package trio

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/fabric"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// Config sizes a router.
type Config struct {
	NumPFEs int
	PFE     pfe.Config
}

// FabricFlowBase offsets fabric-delivered flows in the reorder engine's key
// space so they never collide with external ingress flows.
const FabricFlowBase = 1 << 48

// Router is a multi-PFE Trio device.
type Router struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric

	pfes     []*pfe.PFE
	external map[portKey]pfe.Output
	internal map[portKey]internalLink
}

type portKey struct {
	pfeID, port int
}

type internalLink struct {
	dstPFE, dstPort int
}

// New builds a router with cfg.NumPFEs PFEs on one simulation engine.
func New(eng *sim.Engine, cfg Config) *Router {
	if cfg.NumPFEs <= 0 {
		cfg.NumPFEs = 1
	}
	r := &Router{
		Engine:   eng,
		Fabric:   fabric.New(eng, cfg.NumPFEs, fabric.DefaultConfig()),
		external: make(map[portKey]pfe.Output),
		internal: make(map[portKey]internalLink),
	}
	for i := 0; i < cfg.NumPFEs; i++ {
		pcfg := cfg.PFE
		pcfg.ID = i
		p := pfe.New(eng, pcfg)
		id := i
		p.SetOutput(func(port int, frame []byte, at sim.Time) { r.route(id, port, frame) })
		r.pfes = append(r.pfes, p)
	}
	return r
}

// PFE returns PFE i.
func (r *Router) PFE(i int) *pfe.PFE { return r.pfes[i] }

// AttachExternal binds an external receiver (a server NIC, a peer router) to
// a PFE port. Frames the PFE forwards out that port are delivered to out.
func (r *Router) AttachExternal(pfeID, port int, out pfe.Output) {
	k := portKey{pfeID, port}
	if _, dup := r.internal[k]; dup {
		panic(fmt.Sprintf("trio: port %v already connected internally", k))
	}
	r.external[k] = out
}

// ConnectInternal joins (pfeA, portA) and (pfeB, portB) across the fabric in
// both directions, the way line-card PFEs interconnect inside a chassis.
func (r *Router) ConnectInternal(pfeA, portA, pfeB, portB int) {
	ka, kb := portKey{pfeA, portA}, portKey{pfeB, portB}
	for _, k := range []portKey{ka, kb} {
		if _, dup := r.external[k]; dup {
			panic(fmt.Sprintf("trio: port %v already attached externally", k))
		}
	}
	r.internal[ka] = internalLink{dstPFE: pfeB, dstPort: portB}
	r.internal[kb] = internalLink{dstPFE: pfeA, dstPort: portA}
}

// Inject delivers a frame arriving from outside on (pfeID, port) with the
// given reorder flow key.
func (r *Router) Inject(pfeID, port int, flow uint64, frame []byte) {
	r.pfes[pfeID].Inject(port, flow, frame)
}

// route dispatches a PFE egress frame to its attached destination.
func (r *Router) route(pfeID, port int, frame []byte) {
	k := portKey{pfeID, port}
	if out, ok := r.external[k]; ok {
		out(port, frame, r.Engine.Now())
		return
	}
	if link, ok := r.internal[k]; ok {
		src := pfeID
		r.Fabric.Send(src, link.dstPFE, frame, func(f []byte, at sim.Time) {
			// One reorder flow per (src PFE, egress port).
			flow := FabricFlowBase | uint64(src)<<16 | uint64(port)
			r.pfes[link.dstPFE].Inject(link.dstPort, flow, f)
		})
		return
	}
	// Unattached port: the frame leaves the simulated world (black-holed),
	// which mirrors an unconnected physical port.
}
