// Package trace models block-level I/O traces: the record format, CSV
// parsing/writing (native, Alibaba-Cloud-style and MSR-Cambridge layouts),
// expansion of byte-addressed requests into page-level operations with the
// request context PHFTL's features need (io_len, is_seq), aggregate
// statistics, and offline page-lifetime annotation used as ground truth for
// Table I. Reader and Expander are the streaming forms: multi-GB traces
// parse and expand in constant memory.
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Op is the request type.
type Op byte

const (
	// OpRead is a host read.
	OpRead Op = 'R'
	// OpWrite is a host write.
	OpWrite Op = 'W'
	// OpTrim is a host discard: the addressed range no longer holds live
	// data and the device may invalidate it (ATA TRIM / NVMe deallocate).
	OpTrim Op = 'T'
)

// Record is one block-level request.
type Record struct {
	Time   uint64 // arrival time in microseconds since trace start
	Op     Op
	Offset uint64 // byte offset
	Size   uint32 // bytes
}

// PageOp is one page-granularity operation produced by expanding a Record,
// carrying the per-request context PHFTL extracts features from.
type PageOp struct {
	LPN      uint32
	Write    bool
	Trim     bool   // discard of the page (Write is false)
	ReqPages int    // pages in the parent request (io_len)
	Seq      bool   // request starts where the previous request of same kind ended
	Time     uint64 // parent request arrival time, µs
}

// request-kind indices for the Expander's per-kind stream-detection state.
const (
	kindWrite = iota
	kindRead
	kindTrim
	numKinds
)

func kindOf(op Op) int {
	switch op {
	case OpWrite:
		return kindWrite
	case OpTrim:
		return kindTrim
	default:
		return kindRead
	}
}

// Expander incrementally converts byte-addressed records into page-level
// operations for a given page size, wrapping LPNs modulo drivePages so
// traces recorded on larger drives replay on scaled-down ones. It holds only
// the per-kind sequential-stream state, so arbitrarily long traces expand in
// constant memory. A request is sequential if its byte offset equals the end
// offset of the previous request of the same kind, mirroring how firmware
// detects streams; whether a previous request exists is tracked explicitly
// per kind (a sentinel end-offset of 0 would misclassify requests
// legitimately continuing from offset 0).
type Expander struct {
	pageSize   int
	drivePages int
	lastEnd    [numKinds]uint64
	seen       [numKinds]bool
}

// NewExpander returns an Expander for the given page size and drive size.
func NewExpander(pageSize, drivePages int) *Expander {
	return &Expander{pageSize: pageSize, drivePages: drivePages}
}

// Expand converts one record into its page ops, invoking yield once per
// page in ascending LPN order. A non-nil error from yield aborts the
// expansion and is returned. Zero-size records expand to nothing.
func (e *Expander) Expand(r Record, yield func(PageOp) error) error {
	if r.Size == 0 {
		return nil
	}
	first := r.Offset / uint64(e.pageSize)
	last := (r.Offset + uint64(r.Size) - 1) / uint64(e.pageSize)
	n := int(last - first + 1)
	k := kindOf(r.Op)
	seq := e.seen[k] && r.Offset == e.lastEnd[k]
	e.seen[k] = true
	e.lastEnd[k] = r.Offset + uint64(r.Size)
	op := PageOp{
		Write:    r.Op == OpWrite,
		Trim:     r.Op == OpTrim,
		ReqPages: n,
		Seq:      seq,
		Time:     r.Time,
	}
	for p := first; p <= last; p++ {
		op.LPN = uint32(p % uint64(e.drivePages))
		if err := yield(op); err != nil {
			return err
		}
	}
	return nil
}

// Expand converts byte-addressed records into page-level operations for the
// given page size; it is the slice form of Expander (see there for the
// sequential-detection semantics).
func Expand(records []Record, pageSize int, drivePages int) []PageOp {
	var out []PageOp
	e := NewExpander(pageSize, drivePages)
	for _, r := range records {
		e.Expand(r, func(op PageOp) error { // nolint: errcheck — never errs
			out = append(out, op)
			return nil
		})
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Reads, Writes, Trims    int
	ReadBytes, WriteBytes   uint64
	TrimBytes               uint64
	MinOffset, MaxOffsetEnd uint64
	Duration                uint64 // µs between first and last record

	first, last uint64 // earliest and latest arrival times seen
}

// Add folds one record into the statistics, so a stream can be summarized
// while it is consumed.
func (s *Stats) Add(r Record) {
	empty := s.Reads+s.Writes+s.Trims == 0
	switch r.Op {
	case OpWrite:
		s.Writes++
		s.WriteBytes += uint64(r.Size)
	case OpTrim:
		s.Trims++
		s.TrimBytes += uint64(r.Size)
	default:
		s.Reads++
		s.ReadBytes += uint64(r.Size)
	}
	if empty || r.Offset < s.MinOffset {
		s.MinOffset = r.Offset
	}
	if end := r.Offset + uint64(r.Size); end > s.MaxOffsetEnd {
		s.MaxOffsetEnd = end
	}
	if empty || r.Time < s.first {
		s.first = r.Time
	}
	if empty || r.Time > s.last {
		s.last = r.Time
	}
	s.Duration = s.last - s.first
}

// Summarize computes aggregate statistics; it is the slice form of Stats.Add.
func Summarize(records []Record) Stats {
	var s Stats
	for _, r := range records {
		s.Add(r)
	}
	return s
}

// InfiniteLifetime marks a page write that is never overwritten within the
// trace (read-only or written-once data).
const InfiniteLifetime = ^uint32(0)

// clampLifetime converts a virtual-clock gap to its uint32 lifetime label.
// Gaps that do not fit in uint32 clamp to InfiniteLifetime: a page that
// lived 2^32−1 page writes is colder than any plausible classification
// threshold, and letting the conversion wrap would mislabel exactly those
// coldest pages as hot in the ground truth.
func clampLifetime(gap uint64) uint32 {
	if gap >= uint64(InfiniteLifetime) {
		return InfiniteLifetime
	}
	return uint32(gap)
}

// AnnotateLifetimes computes, for every page-level *write* in ops (in
// order), its ground-truth lifetime: the number of logical page writes
// between it and the next invalidation of the same LPN — an overwrite, or a
// trim (a discarded page is dead the instant the trim lands; the gap is
// counted as if the trim were the next write) — following the paper's
// definition of the global page-write counter as a virtual clock (§III-B).
// Writes never invalidated get InfiniteLifetime, as do (pathologically cold)
// writes whose lifetime overflows uint32. The returned slice has one entry
// per write op, in encounter order; read and trim ops contribute no entry.
func AnnotateLifetimes(ops []PageOp) []uint32 {
	// First pass: index of previous write per LPN, patched forward.
	type pending struct {
		writeIdx int    // index into the result slice
		clock    uint64 // virtual clock at that write
	}
	lastWrite := make(map[uint32]pending)
	var lifetimes []uint32
	var clock uint64
	for _, op := range ops {
		if op.Trim {
			if prev, ok := lastWrite[op.LPN]; ok {
				lifetimes[prev.writeIdx] = clampLifetime(clock - prev.clock + 1)
				delete(lastWrite, op.LPN)
			}
			continue
		}
		if !op.Write {
			continue
		}
		clock++
		if prev, ok := lastWrite[op.LPN]; ok {
			lifetimes[prev.writeIdx] = clampLifetime(clock - prev.clock)
		}
		lifetimes = append(lifetimes, InfiniteLifetime)
		lastWrite[op.LPN] = pending{writeIdx: len(lifetimes) - 1, clock: clock}
	}
	return lifetimes
}

// ReadCSV parses all trace records from r; it is the slice form of Reader
// (see there for the accepted layouts and header handling).
func ReadCSV(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var out []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteCSV writes records in the native 4-field layout.
func WriteCSV(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if _, err := fmt.Fprintf(bw, "%d,%c,%d,%d\n", r.Time, r.Op, r.Offset, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}
