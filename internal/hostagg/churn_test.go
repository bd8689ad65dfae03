package hostagg

import (
	"sync"
	"testing"
	"time"
)

// TestWorkerChurnRace hammers the worker registration table (workersMu) from
// every direction at once — clients joining and leaving with scatter traffic
// in flight, the emit path snapshotting targets, and idle eviction dropping
// whole jobs — and relies on the -race build (make verify runs this package
// race-enabled) to catch any unsynchronized access. It ends by proving the
// server is still coherent: a fresh pair of workers completes a block.
func TestWorkerChurnRace(t *testing.T) {
	s := newTestServer(t, 2, 20*time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churners: short-lived clients that register (first send), scatter a
	// few blocks, and vanish — live join/leave under traffic.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(src uint8) {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, SrcID: src})
				if err != nil {
					continue
				}
				for b := uint32(0); b < 4; b++ {
					c.SendBlock(i*4+b, uint16(i), []int32{1, 2, 3}, false)
				}
				c.Close()
			}
		}(uint8(g % 2))
	}
	// Reader: the emit path's view of the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.targets(1)
			s.Stats()
			s.TenantStats()
		}
	}()
	// Evictor: the scanner's write path, dropping job registrations whole.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				s.dropJobWorkers(1)
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The table must still work: two steady workers complete a block. The
	// churn can leave the server's socket buffer brimming, so the kernel is
	// allowed to drop these datagrams — resend until the full result lands
	// (duplicates are deduped server-side, and a partial that aged out
	// mid-retry arrives flagged degraded, which we skip). A churn block that
	// completes late is multicast to the addresses now registered for its
	// sources, which are c0's and c1's, so results for other blocks are
	// skipped too.
	c0 := newTestClient(t, s, 0)
	c1 := newTestClient(t, s, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c0.SendBlock(1<<30, 100, []int32{5}, true); err != nil {
			t.Fatal(err)
		}
		if err := c1.SendBlock(1<<30, 100, []int32{7}, true); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-c0.Results():
			if r.Degraded || r.BlockID != 1<<30 {
				continue
			}
			if len(r.Grads) != 1 || r.Grads[0] != 12 {
				t.Fatalf("result = %+v, want sum 12", r)
			}
			return
		case <-time.After(200 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("no result after churn")
			}
		}
	}
}
