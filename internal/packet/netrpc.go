package packet

import (
	"encoding/binary"
	"fmt"
)

// NetRPCPort is the pre-defined UDP destination port that addresses the
// in-network RPC aggregation/caching service (apps/netrpc), the way
// TrioMLPort addresses Trio-ML aggregation.
const NetRPCPort = 12100

// NetRPC ops.
const (
	// NetRPCRequest is a client→service call for an idempotent RPC.
	NetRPCRequest = 1
	// NetRPCResponse is a service→client result — emitted by the origin
	// server, replayed by the PFE cache, or fanned out to coalesced waiters.
	NetRPCResponse = 2
)

// NetRPC flag bits. The PFE sets them when it, rather than the origin
// server, decides a packet's fate; clients use them to attribute latency.
const (
	// NetRPCFlagCached marks a response served from the PFE-resident result
	// cache without touching the origin server.
	NetRPCFlagCached = 1 << 0
	// NetRPCFlagCoalesced marks a response delivered by the coalesced-fanout
	// path: the request never left the PFE, and the reply is a replica of
	// another client's response.
	NetRPCFlagCoalesced = 1 << 1
)

// NetRPCHeaderLen is the serialized netrpc_hdr_t size. The layout is
// byte-aligned big-endian so the PFE microcode reads every field with a
// single lmem access:
//
//	offset  width  field
//	0       1      op
//	1       1      flags
//	2       2      client_id
//	4       2      method
//	6       2      payload_len
//	8       8      rpc_id
//	16             payload
const NetRPCHeaderLen = 16

// Field offsets within the header (== within the UDP payload), exported for
// the microcode program generator's lmem defines.
const (
	NetRPCOpOff      = 0
	NetRPCFlagsOff   = 1
	NetRPCClientOff  = 2
	NetRPCMethodOff  = 4
	NetRPCPlenOff    = 6
	NetRPCIDOff      = 8
	NetRPCPayloadOff = NetRPCHeaderLen
)

// NetRPC is the RPC header that follows UDP in netrpc packets. RPCID is the
// idempotency key — clients derive it from (method, canonicalized args), so
// two clients asking the same question collide on it by construction, which
// is what coalescing and caching key on. ClientID names the requesting
// client; the service echoes it in responses and uses it to address the
// coalesced-fanout replicas.
type NetRPC struct {
	Op         uint8
	Flags      uint8
	ClientID   uint16
	Method     uint16
	PayloadLen uint16
	RPCID      uint64
}

func (h *NetRPC) MarshalTo(b []byte) int {
	b[NetRPCOpOff] = h.Op
	b[NetRPCFlagsOff] = h.Flags
	binary.BigEndian.PutUint16(b[NetRPCClientOff:], h.ClientID)
	binary.BigEndian.PutUint16(b[NetRPCMethodOff:], h.Method)
	binary.BigEndian.PutUint16(b[NetRPCPlenOff:], h.PayloadLen)
	binary.BigEndian.PutUint64(b[NetRPCIDOff:], h.RPCID)
	return NetRPCHeaderLen
}

func (h *NetRPC) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < NetRPCHeaderLen {
		return nil, fmt.Errorf("netrpc: %w (%d bytes)", ErrTruncated, len(b))
	}
	h.Op = b[NetRPCOpOff]
	h.Flags = b[NetRPCFlagsOff]
	h.ClientID = binary.BigEndian.Uint16(b[NetRPCClientOff:])
	h.Method = binary.BigEndian.Uint16(b[NetRPCMethodOff:])
	h.PayloadLen = binary.BigEndian.Uint16(b[NetRPCPlenOff:])
	h.RPCID = binary.BigEndian.Uint64(b[NetRPCIDOff:])
	return b[NetRPCHeaderLen:], nil
}

// BuildNetRPC serializes a complete Ethernet/IPv4/UDP netrpc packet. If
// hdr.PayloadLen is zero it is set from len(payload); if spec.DstPort is
// zero it is set to NetRPCPort.
func BuildNetRPC(spec UDPSpec, hdr NetRPC, payload []byte) []byte {
	if hdr.PayloadLen == 0 {
		hdr.PayloadLen = uint16(len(payload))
	}
	if spec.DstPort == 0 {
		spec.DstPort = NetRPCPort
	}
	buf, room, ipStart, udpStart := udpRoom(spec, NetRPCHeaderLen+len(payload))
	hdr.MarshalTo(room)
	copy(room[NetRPCHeaderLen:], payload)
	finishUDP(buf, ipStart, udpStart)
	return buf
}
