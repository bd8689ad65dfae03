package packet

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/bitfield"
)

// TrioMLHeaderLen is the serialized trio_ml_hdr_t size (Fig. 8: 12 bytes).
const TrioMLHeaderLen = 12

// MaxGradientsPerPacket is the largest gradient block one packet carries
// (Fig. 7: up to 4096 bytes = 1024 32-bit gradients).
const MaxGradientsPerPacket = 1024

// trioMLLayout is the bit-exact layout of trio_ml_hdr_t from Fig. 8.
var trioMLLayout = bitfield.NewLayout(
	bitfield.Field{Name: "job_id", Width: 8},
	bitfield.Field{Name: "block_id", Width: 32},
	bitfield.Field{Name: "age_op", Width: 4},
	bitfield.Field{Name: "final", Width: 1},
	bitfield.Field{Name: "degraded", Width: 1},
	bitfield.Field{Name: "", Width: 2}, // unused for byte alignment
	bitfield.Field{Name: "src_id", Width: 8},
	bitfield.Field{Name: "src_cnt", Width: 8},
	bitfield.Field{Name: "gen_id", Width: 16},
	bitfield.Field{Name: "", Width: 4}, // room to expand grad_cnt
	bitfield.Field{Name: "grad_cnt", Width: 12},
)

// TrioML is the aggregation header that follows UDP in Trio-ML packets.
// Field semantics follow §4–§5 of the paper.
type TrioML struct {
	JobID    uint8  // aggregation job id
	BlockID  uint32 // aggregation block id
	AgeOp    uint8  // 4 bits: whether the block has aged out
	Final    bool   // block is the job's final block
	Degraded bool   // aggregation is partial (straggler mitigation)
	SrcID    uint8  // source id of the packet
	SrcCnt   uint8  // number of sources contributing
	GenID    uint16 // generation id (iteration number)
	GradCnt  uint16 // 12 bits: number of gradients in this packet
}

func (h *TrioML) MarshalTo(b []byte) int {
	for i := 0; i < TrioMLHeaderLen; i++ {
		b[i] = 0
	}
	rec := b[:TrioMLHeaderLen]
	trioMLLayout.Put(rec, "job_id", uint64(h.JobID))
	trioMLLayout.Put(rec, "block_id", uint64(h.BlockID))
	trioMLLayout.Put(rec, "age_op", uint64(h.AgeOp))
	trioMLLayout.Put(rec, "final", boolBit(h.Final))
	trioMLLayout.Put(rec, "degraded", boolBit(h.Degraded))
	trioMLLayout.Put(rec, "src_id", uint64(h.SrcID))
	trioMLLayout.Put(rec, "src_cnt", uint64(h.SrcCnt))
	trioMLLayout.Put(rec, "gen_id", uint64(h.GenID))
	trioMLLayout.Put(rec, "grad_cnt", uint64(h.GradCnt))
	return TrioMLHeaderLen
}

func (h *TrioML) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < TrioMLHeaderLen {
		return nil, fmt.Errorf("trioml: %w (%d bytes)", ErrTruncated, len(b))
	}
	rec := b[:TrioMLHeaderLen]
	h.JobID = uint8(trioMLLayout.Get(rec, "job_id"))
	h.BlockID = uint32(trioMLLayout.Get(rec, "block_id"))
	h.AgeOp = uint8(trioMLLayout.Get(rec, "age_op"))
	h.Final = trioMLLayout.Get(rec, "final") != 0
	h.Degraded = trioMLLayout.Get(rec, "degraded") != 0
	h.SrcID = uint8(trioMLLayout.Get(rec, "src_id"))
	h.SrcCnt = uint8(trioMLLayout.Get(rec, "src_cnt"))
	h.GenID = uint16(trioMLLayout.Get(rec, "gen_id"))
	h.GradCnt = uint16(trioMLLayout.Get(rec, "grad_cnt"))
	return b[TrioMLHeaderLen:], nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PutGradients serializes gradients as big-endian int32 values (the ATP-style
// fixed-point representation the paper adopts) into b and returns the byte
// count. b must hold 4*len(grads) bytes.
func PutGradients(b []byte, grads []int32) int {
	for i, g := range grads {
		binary.BigEndian.PutUint32(b[4*i:], uint32(g))
	}
	return 4 * len(grads)
}

// Gradients parses count big-endian int32 gradients from b.
func Gradients(b []byte, count int) ([]int32, error) {
	if len(b) < 4*count {
		return nil, fmt.Errorf("gradients: %w (%d bytes for %d gradients)", ErrTruncated, len(b), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// AddGradients adds count big-endian int32 gradients from b into dst in
// place — the allocation-free aggregation path for hot receive loops. Only
// min(count, len(dst)) values are added. b must hold 4*count bytes.
func AddGradients(dst []int32, b []byte, count int) {
	if count > len(dst) {
		count = len(dst)
	}
	for i := 0; i < count; i++ {
		dst[i] += int32(binary.BigEndian.Uint32(b[4*i:]))
	}
}
