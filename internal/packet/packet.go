// Package packet implements the wire formats used throughout the Trio
// reproduction: Ethernet, IPv4, UDP, and the Trio-ML aggregation header of
// Fig. 7/8, plus the NetRPC and retry-after headers. Each header is a plain
// struct with MarshalTo/Unmarshal methods over a byte slice; there is no
// generic layer interface, and frames are built and decoded by the
// fixed-stack helpers in frame.go. Only the standard library is used.
//
// Both the simulated data path (internal/trio, internal/trioml) and the real
// UDP host aggregator (internal/hostagg) use these exact bytes, so a packet
// built for the simulator can be replayed on a socket unchanged.
package packet

import (
	"fmt"
	"net/netip"
)

// EtherType values understood by the decoders.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers understood by the decoders.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TrioMLPort is the pre-defined UDP destination port that addresses
// aggregation packets to the router (the paper uses 12000 as its example).
const TrioMLPort = 12000

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v, useful for generating
// stable test and simulation addresses.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// Addr4 converts a netip.Addr to its 4-byte representation, panicking on
// non-IPv4 input (addresses are static configuration in this system).
func Addr4(a netip.Addr) [4]byte {
	if !a.Is4() {
		panic(fmt.Sprintf("packet: %v is not an IPv4 address", a))
	}
	return a.As4()
}

// Checksum computes the RFC 1071 Internet checksum over b with an initial
// partial sum (used to fold in the UDP pseudo-header).
func Checksum(b []byte, initial uint32) uint16 {
	sum := initial
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
