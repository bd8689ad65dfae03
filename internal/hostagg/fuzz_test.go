package hostagg

import (
	"testing"

	"github.com/trioml/triogo/internal/packet"
)

// FuzzHandle throws arbitrary datagrams at the real server decode/admission
// path — the same s.handle the receive loops call — looking for panics,
// counter corruption, or blocks opened by malformed input. The seed corpus
// in testdata/fuzz/FuzzHandle covers the interesting boundaries: a valid
// contribution, truncated headers, bodies shorter and longer than GradCnt
// claims, an out-of-range source, and control/result source ids arriving in
// the client→server direction.
func FuzzHandle(f *testing.F) {
	valid := buildContribution(1, 7, 0, 1, []int32{1, 2, 3})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(valid[:packet.TrioMLHeaderLen-1])                     // truncated header
	f.Add(valid[:len(valid)-2])                                 // truncated body
	f.Add(append(append([]byte{}, valid...), 0xEE, 0xEE, 0xEE)) // oversized body
	f.Add(buildContribution(1, 7, 63, 1, []int32{1}))           // src beyond fleet
	f.Add(packet.BuildRetryAfter(packet.TrioML{JobID: 1}, packet.RetryReasonQuota, 20))
	big := buildContribution(2, 0, 1, 2, make([]int32, packet.MaxGradientsPerPacket))
	f.Add(big)

	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: 4, RecvWorkers: 1,
		MaxOpenBlocks: 64, MaxBlocksPerJob: 16, ReplayWindow: 8,
		TenantQuotas: map[uint8]TenantQuota{1: {MaxOpenBlocks: 8, PacketsPerSec: 1e6}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	from := blackhole()
	f.Fuzz(func(t *testing.T, data []byte) {
		s.handle(s.conns[0], data, from)
		st := s.Stats()
		if open := s.openBlocks.Load(); open > 64 {
			t.Fatalf("open blocks %d exceed MaxOpenBlocks (stats %+v)", open, st)
		}
	})
}
