package registry

import (
	"math"
	"testing"

	"github.com/phftl/phftl/internal/obs"
)

// FuzzEventsSince checks the /api/v1/events drain against a slice model of
// every stored event. The script is read five bytes per step: how many
// events to record and which kinds, then one drain — from the consumer's
// own cursor or from an arbitrary since — with a kind filter and a limit.
// Every drain must keep the cursor contract: the cursor never moves
// backwards, an event is delivered at most once along the consumer's cursor
// chain, and no event of the filtered kind is skipped unless the ring had
// overwritten it. The seed corpus in testdata/fuzz/FuzzEventsSince runs
// under plain go test; `make fuzz` explores further.
func FuzzEventsSince(f *testing.F) {
	const ringCap = 16
	f.Fuzz(func(t *testing.T, script []byte) {
		r := New()
		r.ring.init(ringCap) // small enough for scripts to overwrite it
		c := r.OpenCell("x", CellMeta{})
		var stored []SeqEvent // every event the ring was handed, seq = index+1
		var counts [obs.NumKinds]uint64
		var clock, chain uint64
		delivered := make(map[uint64]bool)

		for ; len(script) >= 5; script = script[5:] {
			n, k0, s, kind, lim := int(script[0]%64), int(script[1]), script[2], obs.Kind(int(script[3])%(obs.NumKinds+1)), int(int8(script[4]))
			for j := 0; j < n; j++ {
				ev := obs.Event{Kind: obs.Kind(1 + (k0+j*(k0|1))%obs.NumKinds), Clock: clock}
				clock++
				c.Record(ev)
				slot := int(ev.Kind) % obs.NumKinds
				counts[slot]++
				hot := ev.Kind >= obs.KindMetaCacheHit && ev.Kind <= obs.KindMetaCacheEvict
				if !hot || (counts[slot]-1)%obs.HotSampleEvery == 0 {
					stored = append(stored, SeqEvent{Seq: uint64(len(stored) + 1), Cell: "x", Ev: ev})
				}
			}

			since := chain
			switch {
			case s == math.MaxUint8:
				since = math.MaxUint64
			case s >= 128:
				since = uint64(s - 128)
			}
			got, cursor := r.EventsSince(since, kind, lim)

			newest := uint64(len(stored))
			oldest := uint64(1)
			if newest > ringCap {
				oldest = newest - ringCap + 1
			}
			want := lim
			if want <= 0 {
				want = 1000
			}
			if cursor < since || cursor > max(since, newest) {
				t.Fatalf("since %d: cursor %d outside [since, max(since, newest %d)]", since, cursor, newest)
			}
			if len(got) > want {
				t.Fatalf("limit %d: got %d events", lim, len(got))
			}
			if len(got) < want && cursor != max(since, newest) {
				t.Fatalf("since %d: short page of %d ended at cursor %d before newest %d", since, len(got), cursor, newest)
			}
			// The page is exactly the retained events of the kind in
			// (since, cursor]: none skipped, none invented.
			i := 0
			for seq := max(since, oldest-1); seq < cursor; {
				seq++
				se := stored[seq-1]
				if kind != 0 && se.Ev.Kind != kind {
					continue
				}
				if i >= len(got) || got[i] != se {
					t.Fatalf("since %d kind %v: event %+v missing from page %+v", since, kind, se, got)
				}
				i++
			}
			if i != len(got) {
				t.Fatalf("since %d kind %v: page %+v carries events outside (since, cursor %d]", since, kind, got, cursor)
			}

			if since == chain {
				for _, se := range got {
					if delivered[se.Seq] {
						t.Fatalf("seq %d delivered twice along the cursor chain", se.Seq)
					}
					delivered[se.Seq] = true
				}
				chain = cursor
			}
		}
	})
}
