package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors returned by the layer parsers.
var (
	ErrTruncated   = errors.New("packet: truncated header")
	ErrBadVersion  = errors.New("packet: unsupported IP version")
	ErrBadIHL      = errors.New("packet: IHL below minimum")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
	ErrBadLength   = errors.New("packet: length field inconsistent")
)

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// EthernetLen is the serialized Ethernet header size.
const EthernetLen = 14

func (e *Ethernet) MarshalTo(b []byte) int {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
	return EthernetLen
}

func (e *Ethernet) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < EthernetLen {
		return nil, fmt.Errorf("ethernet: %w (%d bytes)", ErrTruncated, len(b))
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthernetLen:], nil
}

// IPv4 is the IPv4 header. Options are carried verbatim; the filter example
// in §3.2 drops packets whose IHL exceeds 5, so options must survive decode.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst [4]byte
	Options  []byte // 0–40 bytes, multiple of 4
}

// IPv4MinLen is the option-less IPv4 header size.
const IPv4MinLen = 20

// IHL reports the header length field in 32-bit words.
func (ip *IPv4) IHL() uint8 { return uint8(IPv4MinLen+len(ip.Options)) / 4 }

func (ip *IPv4) HeaderLen() int { return IPv4MinLen + len(ip.Options) }

func (ip *IPv4) MarshalTo(b []byte) int {
	n := ip.HeaderLen()
	b[0] = 4<<4 | ip.IHL()
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1FFF)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	copy(b[20:n], ip.Options)
	ip.Checksum = Checksum(b[:n], 0)
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
	return n
}

func (ip *IPv4) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < IPv4MinLen {
		return nil, fmt.Errorf("ipv4: %w (%d bytes)", ErrTruncated, len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("ipv4: %w (version %d)", ErrBadVersion, v)
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < IPv4MinLen {
		return nil, fmt.Errorf("ipv4: %w (ihl %d)", ErrBadIHL, ihl)
	}
	if len(b) < ihl {
		return nil, fmt.Errorf("ipv4: %w (ihl %d > %d bytes)", ErrTruncated, ihl, len(b))
	}
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1FFF
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	ip.Options = append(ip.Options[:0], b[IPv4MinLen:ihl]...)
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("ipv4: %w", ErrBadChecksum)
	}
	if int(ip.TotalLen) < ihl {
		return nil, fmt.Errorf("ipv4: %w (total %d < ihl %d)", ErrBadLength, ip.TotalLen, ihl)
	}
	return b[ihl:], nil
}

// UDP is the 8-byte UDP header. Checksum covers the pseudo-header and
// payload when built by BuildUDP or BuildTrioML; Unmarshal records but does
// not verify it (the simulator's memory system is assumed error-free, and
// real-socket traffic is verified by the kernel).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// UDPLen is the serialized UDP header size.
const UDPLen = 8

func (u *UDP) MarshalTo(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
	return UDPLen
}

func (u *UDP) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < UDPLen {
		return nil, fmt.Errorf("udp: %w (%d bytes)", ErrTruncated, len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(u.Length) < UDPLen {
		return nil, fmt.Errorf("udp: %w (length %d)", ErrBadLength, u.Length)
	}
	return b[UDPLen:], nil
}
