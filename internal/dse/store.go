package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// storeFormat marks the JSONL layout; bump it on incompatible changes so a
// resume against an old file fails loudly instead of merging garbage.
const storeFormat = "triogo-dse/v1"

// header is the store's first line, binding the file to one sweep. A resume
// with a different space, seed, or point count must not silently merge, so
// begin compares the serialized header bytes exactly.
type header struct {
	Sweep  string `json:"sweep"`
	Seed   uint64 `json:"seed"`
	Points int    `json:"points"`
	Axes   []Axis `json:"axes"`
}

// Store is a crash-safe JSONL result log with checkpoint/resume. Records are
// flushed strictly in trial order — the file is always exactly
// header + trials 0..k-1 — so an interrupted sweep's store is a byte prefix
// of the uninterrupted one, and a resumed run appends the missing suffix,
// converging to the same bytes. Out-of-order completions are buffered in
// memory until the gap before them closes; a crash re-runs those buffered
// trials on resume, which is safe because trials are deterministic.
//
// Store methods are safe for concurrent use, though the Executor already
// serializes Put calls.
type Store struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	hdrRaw []byte // serialized header line, nil until begin (or load)
	loaded []Result
	next   int // next trial index to flush
	pend   map[int]*Result
}

// OpenStore opens or creates the JSONL store at path and loads its completed
// trials. A trailing partial line — the footprint of a crash mid-append — is
// truncated away; any other malformed content is an error, since complete
// lines are always synced whole.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := len(data)
	if valid > 0 && data[valid-1] != '\n' {
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			valid = i + 1
		} else {
			valid = 0
		}
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}

	s := &Store{path: path, f: f, pend: make(map[int]*Result)}
	lines := bytes.Split(data[:valid], []byte{'\n'})
	for li, line := range lines {
		if len(line) == 0 {
			continue // the split's trailing empty element
		}
		if li == 0 {
			var h header
			if err := json.Unmarshal(line, &h); err != nil || h.Sweep != storeFormat {
				f.Close()
				return nil, fmt.Errorf("dse: %s is not a %s store", path, storeFormat)
			}
			s.hdrRaw = append([]byte(nil), line...)
			continue
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			f.Close()
			return nil, fmt.Errorf("dse: %s line %d: %v", path, li+1, err)
		}
		if r.Trial != len(s.loaded) {
			f.Close()
			return nil, fmt.Errorf("dse: %s line %d: trial %d out of order (want %d)", path, li+1, r.Trial, len(s.loaded))
		}
		s.loaded = append(s.loaded, r)
	}
	s.next = len(s.loaded)
	return s, nil
}

// Completed returns the trials already persisted, in trial order — always a
// gap-free prefix 0..k-1 of the sweep.
func (s *Store) Completed() []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Result(nil), s.loaded...)
}

// begin binds the store to a sweep: on a fresh file it writes and syncs the
// header; on a resumed file it verifies the header matches byte-for-byte and
// that the file doesn't hold more trials than the sweep has points.
func (s *Store) begin(space *Space, seed uint64, points int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, err := json.Marshal(header{Sweep: storeFormat, Seed: seed, Points: points, Axes: space.Axes})
	if err != nil {
		return err
	}
	if s.hdrRaw != nil {
		if !bytes.Equal(s.hdrRaw, line) {
			return fmt.Errorf("dse: %s belongs to a different sweep (header %s, want %s)", s.path, s.hdrRaw, line)
		}
		if len(s.loaded) > points {
			return fmt.Errorf("dse: %s holds %d trials but the sweep has %d points", s.path, len(s.loaded), points)
		}
		return nil
	}
	if len(s.loaded) > 0 {
		return fmt.Errorf("dse: %s has trial records but no header", s.path)
	}
	if err := s.writeLine(line); err != nil {
		return err
	}
	s.hdrRaw = line
	return s.f.Sync()
}

// Put records one finished trial, flushing the in-order run it completes
// (if any) and syncing the file after each flush so every persisted record
// is a whole line.
func (s *Store) Put(r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Trial < s.next || s.pend[r.Trial] != nil {
		return fmt.Errorf("dse: duplicate result for trial %d", r.Trial)
	}
	s.pend[r.Trial] = &r
	flushed := false
	for {
		p := s.pend[s.next]
		if p == nil {
			break
		}
		line, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("dse: trial %d: %v", p.Trial, err)
		}
		if err := s.writeLine(line); err != nil {
			return err
		}
		delete(s.pend, s.next)
		s.loaded = append(s.loaded, *p)
		s.next++
		flushed = true
	}
	if flushed {
		return s.f.Sync()
	}
	return nil
}

// Pending reports buffered out-of-order results that cannot flush yet
// because an earlier trial is still running.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pend)
}

func (s *Store) writeLine(line []byte) error {
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return nil
}

// Close releases the file. Buffered out-of-order results are discarded —
// their trials simply re-run on resume.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
