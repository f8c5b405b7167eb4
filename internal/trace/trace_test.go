package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExpandSplitsRequestsIntoPages(t *testing.T) {
	recs := []Record{
		{Time: 10, Op: OpWrite, Offset: 0, Size: 4096 * 3},
		{Time: 20, Op: OpRead, Offset: 4096, Size: 4096},
	}
	ops := Expand(recs, 4096, 1000)
	if len(ops) != 4 {
		t.Fatalf("len = %d, want 4", len(ops))
	}
	for i := 0; i < 3; i++ {
		op := ops[i]
		if !op.Write || op.LPN != uint32(i) || op.ReqPages != 3 || op.Time != 10 {
			t.Errorf("op[%d] = %+v", i, op)
		}
	}
	if ops[3].Write || ops[3].LPN != 1 || ops[3].ReqPages != 1 {
		t.Errorf("read op = %+v", ops[3])
	}
}

func TestExpandUnalignedRequest(t *testing.T) {
	// 100 bytes starting at byte 4000 straddles pages 0 and 1.
	ops := Expand([]Record{{Op: OpWrite, Offset: 4000, Size: 200}}, 4096, 100)
	if len(ops) != 2 || ops[0].LPN != 0 || ops[1].LPN != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	// Zero-size requests disappear.
	if got := Expand([]Record{{Op: OpWrite, Offset: 0, Size: 0}}, 4096, 100); len(got) != 0 {
		t.Errorf("zero-size produced %d ops", len(got))
	}
}

func TestExpandSequentialDetection(t *testing.T) {
	recs := []Record{
		{Op: OpWrite, Offset: 4096, Size: 4096},  // not seq (first)
		{Op: OpWrite, Offset: 8192, Size: 4096},  // seq: starts at prev end
		{Op: OpRead, Offset: 0, Size: 4096},      // read stream independent
		{Op: OpWrite, Offset: 12288, Size: 4096}, // still seq for writes
		{Op: OpWrite, Offset: 0, Size: 4096},     // jump: not seq
	}
	ops := Expand(recs, 4096, 100)
	wantSeq := []bool{false, true, false, true, false}
	for i, w := range wantSeq {
		if ops[i].Seq != w {
			t.Errorf("op[%d].Seq = %v, want %v", i, ops[i].Seq, w)
		}
	}
}

func TestExpandWrapsLPNs(t *testing.T) {
	ops := Expand([]Record{{Op: OpWrite, Offset: 4096 * 105, Size: 4096}}, 4096, 100)
	if ops[0].LPN != 5 {
		t.Errorf("LPN = %d, want 5 (105 mod 100)", ops[0].LPN)
	}
}

func TestExpandSequentialContinuationFromOffsetZero(t *testing.T) {
	// Regression: the old implementation used `lastWriteEnd != 0` as its
	// "have we seen a request" sentinel, so a request whose predecessor
	// legitimately ended at byte offset 0 (end-of-address-space wrap) was
	// never flagged sequential.
	wrapStart := ^uint64(0) - 4095 // last 4096 bytes of the address space
	recs := []Record{
		{Op: OpWrite, Offset: wrapStart, Size: 4096}, // ends at offset 0
		{Op: OpWrite, Offset: 0, Size: 4096},         // continues the stream
	}
	ops := Expand(recs, 4096, 100)
	if ops[0].Seq {
		t.Error("first request of a kind flagged sequential")
	}
	if !ops[1].Seq {
		t.Error("request continuing from offset 0 not flagged sequential")
	}
	// And the first-ever request at offset 0 must still NOT be sequential.
	ops = Expand([]Record{{Op: OpWrite, Offset: 0, Size: 4096}}, 4096, 100)
	if ops[0].Seq {
		t.Error("first request at offset 0 flagged sequential")
	}
}

func TestExpandTrimOps(t *testing.T) {
	recs := []Record{
		{Op: OpTrim, Offset: 0, Size: 4096 * 2},
		{Op: OpTrim, Offset: 8192, Size: 4096}, // sequential trim stream
		{Op: OpWrite, Offset: 8192, Size: 4096},
	}
	ops := Expand(recs, 4096, 100)
	if len(ops) != 4 {
		t.Fatalf("len = %d", len(ops))
	}
	for i := 0; i < 3; i++ {
		if !ops[i].Trim || ops[i].Write {
			t.Errorf("op[%d] = %+v, want trim", i, ops[i])
		}
	}
	if ops[0].ReqPages != 2 || ops[0].LPN != 0 || ops[1].LPN != 1 {
		t.Errorf("trim expansion = %+v, %+v", ops[0], ops[1])
	}
	if !ops[2].Seq {
		t.Error("sequential trim not flagged")
	}
	// Trims maintain their own stream: the write at 8192 does not continue
	// the trim stream.
	if ops[3].Seq || ops[3].Trim || !ops[3].Write {
		t.Errorf("write op = %+v", ops[3])
	}
}

func TestExpanderMatchesExpand(t *testing.T) {
	f := func(raw []uint8) bool {
		recs := make([]Record, len(raw))
		ops := []Op{OpWrite, OpRead, OpTrim}
		for i, b := range raw {
			recs[i] = Record{
				Op:     ops[b%3],
				Offset: uint64(b) * 1000,
				Size:   uint32(b%5) * 2048,
				Time:   uint64(i),
			}
		}
		want := Expand(recs, 4096, 64)
		e := NewExpander(4096, 64)
		var got []PageOp
		for _, r := range recs {
			if err := e.Expand(r, func(op PageOp) error {
				got = append(got, op)
				return nil
			}); err != nil {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Time: 100, Op: OpWrite, Offset: 0, Size: 8192},
		{Time: 300, Op: OpRead, Offset: 8192, Size: 4096},
	}
	s := Summarize(recs)
	if s.Writes != 1 || s.Reads != 1 {
		t.Errorf("counts = %d/%d", s.Writes, s.Reads)
	}
	if s.WriteBytes != 8192 || s.ReadBytes != 4096 {
		t.Errorf("bytes = %d/%d", s.WriteBytes, s.ReadBytes)
	}
	if s.MaxOffsetEnd != 12288 || s.MinOffset != 0 {
		t.Errorf("range = [%d,%d)", s.MinOffset, s.MaxOffsetEnd)
	}
	if s.Duration != 200 {
		t.Errorf("duration = %d", s.Duration)
	}
	if empty := Summarize(nil); empty.Writes != 0 {
		t.Errorf("empty = %+v", empty)
	}
}

func TestAnnotateLifetimes(t *testing.T) {
	// Write sequence of LPNs: 1, 2, 1, 3, 1 (virtual clock = write index+1).
	mk := func(lpns ...uint32) []PageOp {
		ops := make([]PageOp, len(lpns))
		for i, l := range lpns {
			ops[i] = PageOp{LPN: l, Write: true, ReqPages: 1}
		}
		return ops
	}
	lifetimes := AnnotateLifetimes(mk(1, 2, 1, 3, 1))
	// Write 0 (lpn 1, clock 1) overwritten at clock 3: lifetime 2.
	// Write 2 (lpn 1, clock 3) overwritten at clock 5: lifetime 2.
	// Writes to lpn 2, 3 and the final lpn-1 write: infinite.
	want := []uint32{2, InfiniteLifetime, 2, InfiniteLifetime, InfiniteLifetime}
	if len(lifetimes) != len(want) {
		t.Fatalf("len = %d", len(lifetimes))
	}
	for i := range want {
		if lifetimes[i] != want[i] {
			t.Errorf("lifetime[%d] = %d, want %d", i, lifetimes[i], want[i])
		}
	}
}

func TestAnnotateLifetimesIgnoresReads(t *testing.T) {
	ops := []PageOp{
		{LPN: 1, Write: true},
		{LPN: 1, Write: false},
		{LPN: 1, Write: true},
	}
	lifetimes := AnnotateLifetimes(ops)
	if len(lifetimes) != 2 {
		t.Fatalf("len = %d, want 2 (reads excluded)", len(lifetimes))
	}
	if lifetimes[0] != 1 {
		t.Errorf("lifetime[0] = %d, want 1 (reads don't advance the clock)", lifetimes[0])
	}
}

// Property: lifetimes are consistent — replaying the write sequence, each
// finite lifetime must equal the gap to the next same-LPN write.
func TestAnnotateLifetimesProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ops := make([]PageOp, len(raw))
		for i, b := range raw {
			ops[i] = PageOp{LPN: uint32(b % 16), Write: true}
		}
		lifetimes := AnnotateLifetimes(ops)
		for i := range ops {
			if lifetimes[i] == InfiniteLifetime {
				// Must be the last write to that LPN.
				for j := i + 1; j < len(ops); j++ {
					if ops[j].LPN == ops[i].LPN {
						return false
					}
				}
				continue
			}
			j := i + int(lifetimes[i])
			if j >= len(ops) || ops[j].LPN != ops[i].LPN {
				return false
			}
			for k := i + 1; k < j; k++ {
				if ops[k].LPN == ops[i].LPN {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeTrims(t *testing.T) {
	recs := []Record{
		{Time: 0, Op: OpWrite, Offset: 0, Size: 4096},
		{Time: 5, Op: OpTrim, Offset: 0, Size: 8192},
	}
	s := Summarize(recs)
	if s.Trims != 1 || s.TrimBytes != 8192 {
		t.Errorf("trims = %d/%d bytes", s.Trims, s.TrimBytes)
	}
	if s.Writes != 1 || s.Reads != 0 {
		t.Errorf("counts = %d writes, %d reads", s.Writes, s.Reads)
	}
	if s.MaxOffsetEnd != 8192 {
		t.Errorf("MaxOffsetEnd = %d", s.MaxOffsetEnd)
	}
}

func TestClampLifetime(t *testing.T) {
	// Regression: a lifetime >= 2^32 page writes used to silently wrap to a
	// small value, mislabeling the coldest pages as hot.
	cases := []struct {
		gap  uint64
		want uint32
	}{
		{1, 1},
		{1 << 31, 1 << 31},
		{uint64(InfiniteLifetime) - 1, InfiniteLifetime - 1},
		{uint64(InfiniteLifetime), InfiniteLifetime},
		{uint64(InfiniteLifetime) + 1, InfiniteLifetime}, // would wrap to 0
		{1 << 33, InfiniteLifetime},                      // would wrap to 2^33 mod 2^32 = 0
		{(1 << 32) + 7, InfiniteLifetime},                // would wrap to 7 ("hot")
	}
	for _, c := range cases {
		if got := clampLifetime(c.gap); got != c.want {
			t.Errorf("clampLifetime(%d) = %d, want %d", c.gap, got, c.want)
		}
	}
}

func TestAnnotateLifetimesTrim(t *testing.T) {
	// Writes to LPNs 1, 2; then LPN 1 is trimmed; then LPN 1 is rewritten.
	ops := []PageOp{
		{LPN: 1, Write: true},
		{LPN: 2, Write: true},
		{LPN: 1, Trim: true},
		{LPN: 1, Write: true},
	}
	lifetimes := AnnotateLifetimes(ops)
	if len(lifetimes) != 3 {
		t.Fatalf("len = %d, want 3 (trims contribute no entry)", len(lifetimes))
	}
	// Write 0 (clock 1) dies at the trim (clock still 2): gap 2-1+1 = 2.
	if lifetimes[0] != 2 {
		t.Errorf("trimmed write lifetime = %d, want 2", lifetimes[0])
	}
	// The rewrite after the trim must NOT resolve against the trimmed
	// write; both it and the LPN-2 write are never invalidated.
	if lifetimes[1] != InfiniteLifetime || lifetimes[2] != InfiniteLifetime {
		t.Errorf("lifetimes = %v", lifetimes)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 1, Op: OpWrite, Offset: 4096, Size: 8192},
		{Time: 2, Op: OpRead, Offset: 0, Size: 512},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("rec[%d] = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVAlibabaLayout(t *testing.T) {
	in := "3,W,8192,4096,123456\n3,r,0,512,123789\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Time != 123456 || got[0].Op != OpWrite || got[0].Offset != 8192 || got[0].Size != 4096 {
		t.Errorf("rec[0] = %+v", got[0])
	}
	if got[1].Op != OpRead {
		t.Errorf("rec[1].Op = %c", got[1].Op)
	}
}

func TestReadCSVErrors(t *testing.T) {
	// A bad first line is tolerated as a header row, so each malformed line
	// sits behind a valid one.
	cases := []string{
		"1,W,0,4096\n1,W,0\n",                      // too few fields
		"1,W,0,4096\nx,W,0,1\n",                    // bad timestamp
		"1,W,0,4096\n1,X,0,1\n",                    // bad op
		"1,W,0,4096\n1,W,abc,1\n",                  // bad offset
		"1,W,0,4096\n1,W,0,99999999999999999999\n", // size overflow
		"1,W,0,4096\n1,W,18446744073709551615,1\n", // offset+size overflows
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		} else if !strings.HasPrefix(err.Error(), "trace: line 2: ") {
			t.Errorf("input %q: error %q does not name line 2", in, err)
		}
	}
	// The largest extent that still fits is accepted.
	if _, err := ReadCSV(strings.NewReader("1,W,0,4096\n1,W,18446744073709551614,1\n")); err != nil {
		t.Errorf("extent ending at 2^64-1 rejected: %v", err)
	}
}

func TestReadCSVHeaderRow(t *testing.T) {
	// Real Alibaba/MSR trace files ship with a header; exactly one
	// unparseable first line is skipped.
	in := "timestamp,op,offset,size\n10,W,0,4096\n20,R,4096,4096\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpWrite || got[1].Op != OpRead {
		t.Fatalf("records = %+v", got)
	}
	r := NewReader(strings.NewReader(in))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if !r.SkippedHeader() {
		t.Error("SkippedHeader = false after skipping a header")
	}
	// Headerless input must not report a skipped header.
	r = NewReader(strings.NewReader("10,W,0,4096\n"))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.SkippedHeader() {
		t.Error("SkippedHeader = true on headerless input")
	}
}

func TestReadCSVTrimOps(t *testing.T) {
	// Native, Alibaba and alias spellings of a discard.
	in := "1,T,0,4096\n0,t,4096,4096,2\n3,D,8192,4096\n4,d,12288,4096\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i, r := range got {
		if r.Op != OpTrim {
			t.Errorf("rec[%d].Op = %c, want T", i, r.Op)
		}
	}
	if got[1].Time != 2 || got[1].Offset != 4096 {
		t.Errorf("alibaba trim = %+v", got[1])
	}
}

func TestCSVTrimRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 1, Op: OpWrite, Offset: 0, Size: 4096},
		{Time: 2, Op: OpTrim, Offset: 0, Size: 4096},
		{Time: 3, Op: OpRead, Offset: 4096, Size: 512},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("rec[%d] = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVMSRLayout(t *testing.T) {
	in := "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n" +
		"128166372003061629,usr,0,Write,8192,4096,551\n" +
		"128166372003071629,usr,0,Read,0,512,560\n" +
		"128166372003081629,usr,0,Trim,16384,4096,10\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Op != OpWrite || got[0].Offset != 8192 || got[0].Size != 4096 {
		t.Errorf("rec[0] = %+v", got[0])
	}
	if got[0].Time != 0 {
		t.Errorf("first MSR timestamp not rebased to 0: %d", got[0].Time)
	}
	// 10^4 filetime ticks = 1 ms = 1000 µs between rows.
	if got[1].Time != 1000 || got[2].Time != 2000 {
		t.Errorf("rebased times = %d, %d, want 1000, 2000", got[1].Time, got[2].Time)
	}
	if got[1].Op != OpRead || got[2].Op != OpTrim {
		t.Errorf("ops = %c, %c", got[1].Op, got[2].Op)
	}
}

func TestStreamingReaderMatchesReadCSV(t *testing.T) {
	in := "ts,op,off,size\n1,W,0,4096\n2,R,4096,512\n3,T,0,4096\n9,w,8192,8192,7\n"
	want, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(in))
	var got []Record
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		got = append(got, rec)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, slice form %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rec[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
