package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RecordSource yields trace records one at a time. Next returns io.EOF when
// the stream is exhausted. Reader implements it for CSV files; workload
// generators can be adapted to it for synthetic streams.
type RecordSource interface {
	Next() (Record, error)
}

// Reader streams trace records from CSV without materializing the whole
// trace, so multi-GB files replay in constant memory. Three layouts are
// accepted, detected per row by field count:
//
//	4 fields (native):  timestamp_us,op,offset_bytes,size_bytes
//	5 fields (Alibaba): device_id,op,offset_bytes,size_bytes,timestamp_us
//	7 fields (MSR Cambridge):
//	    timestamp,hostname,disk_number,type,offset_bytes,size_bytes,response_time
//
// op is R/W/T (case-insensitive; D is accepted as a discard alias). The MSR
// type field is the word Read/Write/Trim. MSR timestamps are Windows
// filetime ticks (100 ns); they are converted to microseconds relative to
// the first record, matching the native layout's time base.
//
// Real trace files ship with a header row; a first line that fails to parse
// is skipped, exactly once (SkippedHeader reports it). Any later
// unparseable line is an error.
type Reader struct {
	cr      *csv.Reader
	line    int
	header  bool
	msrBase uint64
	msrSeen bool
}

// NewReader returns a streaming reader over r.
func NewReader(r io.Reader) *Reader {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	return &Reader{cr: cr}
}

// SkippedHeader reports whether the first line was skipped as a header row.
func (r *Reader) SkippedHeader() bool { return r.header }

// Next returns the next record, or io.EOF at end of stream.
func (r *Reader) Next() (Record, error) {
	for {
		fields, err := r.cr.Read()
		if err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			return Record{}, fmt.Errorf("trace: %w", err)
		}
		r.line++
		rec, perr := r.parseRow(fields)
		if perr != nil {
			if r.line == 1 {
				r.header = true
				continue
			}
			return Record{}, fmt.Errorf("trace: line %d: %w", r.line, perr)
		}
		return rec, nil
	}
}

func (r *Reader) parseRow(fields []string) (Record, error) {
	switch len(fields) {
	case 4:
		return parseFields(fields[0], fields[1], fields[2], fields[3])
	case 5:
		return parseFields(fields[4], fields[1], fields[2], fields[3])
	case 7:
		return r.parseMSR(fields)
	default:
		return Record{}, fmt.Errorf("expected 4, 5 or 7 fields, got %d", len(fields))
	}
}

// parseMSR parses one MSR-Cambridge row and rebases its filetime timestamp
// to µs since the first record.
func (r *Reader) parseMSR(fields []string) (Record, error) {
	rec, err := parseFields("0", fields[3], fields[4], fields[5])
	if err != nil {
		return rec, err
	}
	ticks, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
	}
	us := ticks / 10 // 100 ns filetime ticks -> µs
	if !r.msrSeen {
		r.msrSeen = true
		r.msrBase = us
	}
	if us >= r.msrBase {
		rec.Time = us - r.msrBase
	}
	return rec, nil
}

func parseFields(ts, op, off, size string) (Record, error) {
	var rec Record
	t, err := strconv.ParseUint(ts, 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad timestamp %q: %w", ts, err)
	}
	o, err := strconv.ParseUint(off, 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad offset %q: %w", off, err)
	}
	s, err := strconv.ParseUint(size, 10, 32)
	if err != nil {
		return rec, fmt.Errorf("bad size %q: %w", size, err)
	}
	if o > math.MaxUint64-s {
		return rec, fmt.Errorf("extent %s+%s overflows 64 bits", off, size)
	}
	switch {
	case strings.EqualFold(op, "R") || strings.EqualFold(op, "Read"):
		rec.Op = OpRead
	case strings.EqualFold(op, "W") || strings.EqualFold(op, "Write"):
		rec.Op = OpWrite
	case strings.EqualFold(op, "T") || strings.EqualFold(op, "D") ||
		strings.EqualFold(op, "Trim"):
		rec.Op = OpTrim
	default:
		return rec, fmt.Errorf("bad op %q (want R, W or T)", op)
	}
	rec.Time = t
	rec.Offset = o
	rec.Size = uint32(s)
	return rec, nil
}
