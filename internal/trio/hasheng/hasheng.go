// Package hasheng models Trio's hardware hash engine: the
// lookup/insert/delete XTXN target used by Microcode programs for stateful
// applications, plus the dedicated-logic hash function used for load
// balancing (§2.2).
//
// Two hardware behaviours from the paper matter for the straggler use case
// (§5) and are reproduced exactly:
//
//   - Every record carries a "Recently Referenced" (REF) flag, set when the
//     record is created and whenever a lookup references it.
//   - The table supports partitioned scanning, so N phase-staggered timer
//     threads can each sweep 1/N of the records and check-and-clear REF
//     flags to detect records that have aged out.
package hasheng

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

// Config sizes a hash table instance.
type Config struct {
	Buckets   int      // power of two; default 4096
	OpLatency sim.Time // XTXN round trip for lookup/insert/delete; default 70 ns (SRAM-resident structure)
}

// scanPerRecord is the timer-thread cost to visit one record during a
// partition scan (a multi-cycle microcode loop body).
const scanPerRecord = 4 * sim.Nanosecond

// DefaultConfig returns a table sized for tens of thousands of block records.
func DefaultConfig() Config {
	return Config{Buckets: 4096, OpLatency: 70 * sim.Nanosecond}
}

type entry struct {
	key uint64
	val uint64
	ref bool
}

// Table is a hash table with REF flags. Not safe for concurrent use; the
// simulation serializes access just as the hardware's engine does.
type Table struct {
	cfg     Config
	mask    uint64
	buckets [][]entry
	n       int

	// Stats
	Lookups, Hits, Inserts, Deletes, Scanned uint64
}

// NewTable builds a table from cfg; zero fields take defaults.
func NewTable(cfg Config) *Table {
	def := DefaultConfig()
	if cfg.Buckets == 0 {
		cfg.Buckets = def.Buckets
	}
	if cfg.Buckets&(cfg.Buckets-1) != 0 {
		panic(fmt.Sprintf("hasheng: buckets %d not a power of two", cfg.Buckets))
	}
	if cfg.OpLatency == 0 {
		cfg.OpLatency = def.OpLatency
	}
	return &Table{cfg: cfg, mask: uint64(cfg.Buckets - 1), buckets: make([][]entry, cfg.Buckets)}
}

// Len reports the number of live records.
func (t *Table) Len() int { return t.n }

func (t *Table) bucket(key uint64) uint64 { return Mix64(key) & t.mask }

// Lookup finds a record and, when present, sets its REF flag (the hardware
// reference bit that straggler detection relies on).
func (t *Table) Lookup(now sim.Time, key uint64) (val uint64, ok bool, done sim.Time) {
	t.Lookups++
	done = now + t.cfg.OpLatency
	b := t.buckets[t.bucket(key)]
	for i := range b {
		if b[i].key == key {
			b[i].ref = true
			t.Hits++
			return b[i].val, true, done
		}
	}
	return 0, false, done
}

// Insert creates a record with its REF flag set. It fails if the key exists.
func (t *Table) Insert(now sim.Time, key, val uint64) (ok bool, done sim.Time) {
	t.Inserts++
	done = now + t.cfg.OpLatency
	idx := t.bucket(key)
	for _, e := range t.buckets[idx] {
		if e.key == key {
			return false, done
		}
	}
	t.buckets[idx] = append(t.buckets[idx], entry{key: key, val: val, ref: true})
	t.n++
	return true, done
}

// Update overwrites the value of an existing record without touching REF.
func (t *Table) Update(now sim.Time, key, val uint64) (ok bool, done sim.Time) {
	done = now + t.cfg.OpLatency
	b := t.buckets[t.bucket(key)]
	for i := range b {
		if b[i].key == key {
			b[i].val = val
			return true, done
		}
	}
	return false, done
}

// ClearRef clears a record's REF flag without otherwise touching it — the
// inverse of the reference a Lookup just took. Aggregation programs use it
// when a lookup turns out to be a retransmitted duplicate: a duplicate is
// not forward progress, so it must not keep the record alive against the
// timer threads (otherwise periodic retransmission livelocks aging).
func (t *Table) ClearRef(now sim.Time, key uint64) (ok bool, done sim.Time) {
	done = now + t.cfg.OpLatency
	b := t.buckets[t.bucket(key)]
	for i := range b {
		if b[i].key == key {
			b[i].ref = false
			return true, done
		}
	}
	return false, done
}

// Delete removes a record.
func (t *Table) Delete(now sim.Time, key uint64) (ok bool, done sim.Time) {
	t.Deletes++
	done = now + t.cfg.OpLatency
	idx := t.bucket(key)
	b := t.buckets[idx]
	for i := range b {
		if b[i].key == key {
			b[i] = b[len(b)-1]
			t.buckets[idx] = b[:len(b)-1]
			t.n--
			return true, done
		}
	}
	return false, done
}

// ScanAction is a scan callback's verdict on one record.
type ScanAction int

const (
	// ScanKeep leaves the record untouched.
	ScanKeep ScanAction = iota
	// ScanClearRef clears the REF flag (the normal timer-thread action on a
	// recently-referenced record).
	ScanClearRef
	// ScanDelete removes the record.
	ScanDelete
)

// ScanPartition visits every record whose bucket falls in partition part of
// nParts (0 <= part < nParts), calling visit with the record and its current
// REF flag. The visit verdict is applied in place. It returns the number of
// records visited and the virtual completion time of the sweep — the
// accounting behind "every triggered thread scans 1/N of the aggregation
// table" (§5).
func (t *Table) ScanPartition(now sim.Time, part, nParts int, visit func(key, val uint64, ref bool) ScanAction) (int, sim.Time) {
	if nParts <= 0 || part < 0 || part >= nParts {
		panic(fmt.Sprintf("hasheng: partition %d of %d invalid", part, nParts))
	}
	lo := len(t.buckets) * part / nParts
	hi := len(t.buckets) * (part + 1) / nParts
	visited := 0
	for bi := lo; bi < hi; bi++ {
		b := t.buckets[bi]
		for i := 0; i < len(b); {
			visited++
			switch visit(b[i].key, b[i].val, b[i].ref) {
			case ScanClearRef:
				b[i].ref = false
				i++
			case ScanDelete:
				b[i] = b[len(b)-1]
				b = b[:len(b)-1]
				t.n--
			default:
				i++
			}
		}
		t.buckets[bi] = b
	}
	t.Scanned += uint64(visited)
	return visited, now + sim.Time(visited)*scanPerRecord
}

// Ref reports a record's REF flag without referencing it (test/diagnostic).
func (t *Table) Ref(key uint64) (ref, ok bool) {
	b := t.buckets[t.bucket(key)]
	for i := range b {
		if b[i].key == key {
			return b[i].ref, true
		}
	}
	return false, false
}

// Mix64 is the "high-quality hash function implemented using dedicated
// logic" (§2.2): a full-avalanche 64-bit finalizer (splitmix64).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashFields hashes an arbitrary selection of packet fields — the Microcode
// program chooses which bytes participate (§2.2 "programmable field
// selection, hardwired hash function"). FNV-1a accumulation feeds the Mix64
// finalizer.
func HashFields(seed uint64, fields ...[]byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, f := range fields {
		for _, b := range f {
			h = (h ^ uint64(b)) * prime
		}
		h = (h ^ 0xFF) * prime // field separator so ("ab","c") != ("a","bc")
	}
	return Mix64(h)
}
