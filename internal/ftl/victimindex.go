package ftl

import (
	"fmt"
	"math"
)

// VictimScoreBound is an optional extension of VictimPolicy. MaxScore returns
// an upper bound on Score over every closed superblock with the given invalid
// count, and must not increase as the invalid count falls: the indexed
// selector descends buckets from most-invalid downward and stops at the first
// bucket whose bound falls below the best score already found.
type VictimScoreBound interface {
	MaxScore(invalid, dataPages int) float64
}

// VictimAgedScoreBound is the optional extension for policies whose score
// grows with age, so the invalid count alone bounds nothing. MaxAgedScore
// returns an upper bound on Score over every superblock with the given
// invalid count that closed at most maxAge ticks ago. The bound need not be
// monotone in the invalid count (an old sparse bucket can outscore a young
// dense one), so the indexed selector skips a bucket it rules out and keeps
// descending.
type VictimAgedScoreBound interface {
	MaxAgedScore(invalid, dataPages int, maxAge uint64) float64
}

// MaxScore implements VictimScoreBound: the greedy score is exactly
// invalid/dataPages, so the bound is tight and selection terminates after the
// top non-empty bucket.
func (GreedyPolicy) MaxScore(invalid, dataPages int) float64 {
	return float64(invalid) / float64(dataPages)
}

// MaxScore implements VictimScoreBound. The adjusted-greedy score is the
// invalid proportion shrunk by a discount divisor clamped at 1, so it never
// exceeds invalid/dataPages — except that a fully-invalid short-living
// superblock scores +Inf.
func (p *AdjustedGreedyPolicy) MaxScore(invalid, dataPages int) float64 {
	if invalid == dataPages {
		return math.Inf(1)
	}
	return float64(invalid) / float64(dataPages)
}

// victimIndex buckets closed superblocks by invalid-page count so victim
// selection touches only candidates that can win, instead of scanning every
// superblock on each GC trigger. Each bucket is an intrusive doubly-linked
// list threaded through the parallel next/prev arrays (no per-node
// allocations); bucketOf doubles as the membership flag (-1 = not indexed).
//
// Lifecycle hooks in the FTL keep it exact:
//   - closeIfFull inserts the superblock at its current invalid count
//     (pages may already have been invalidated while it was open);
//   - invalidateOld / Trim move a closed superblock up one bucket;
//   - collect removes the victim before migrating (its valid count decays
//     during migration while it is out of the index).
//
// maxInv is a lazy upper bound on the highest non-empty bucket: inserts raise
// it eagerly, removals leave it stale, and selection walks it down past empty
// buckets (amortized O(1) — each decrement undoes one insert's raise).
//
// minClose[b] is a lower bound on the close clock of bucket b's members, the
// input of VictimAgedScoreBound. Arrivals lower it, a departure leaves it
// stale — too low only makes the age bound looser, never wrong — unless it
// empties the bucket, which resets it to noClose; selection stores the exact
// minimum back whenever it walks the bucket anyway.
type victimIndex struct {
	next, prev []int32  // per-superblock list links, -1 = end
	bucketOf   []int32  // per-superblock current bucket, -1 = not in index
	heads      []int32  // invalid count -> first superblock in bucket, -1 = empty
	minClose   []uint64 // invalid count -> lower bound on members' close clocks
	maxInv     int
}

// noClose is minClose of an empty bucket: above every close clock.
const noClose = math.MaxUint64

func (vi *victimIndex) init(superblocks, dataPages int) {
	vi.next = make([]int32, superblocks)
	vi.prev = make([]int32, superblocks)
	vi.bucketOf = make([]int32, superblocks)
	vi.heads = make([]int32, dataPages+1)
	vi.minClose = make([]uint64, dataPages+1)
	for i := range vi.next {
		vi.next[i] = -1
		vi.prev[i] = -1
		vi.bucketOf[i] = -1
	}
	for i := range vi.heads {
		vi.heads[i] = -1
		vi.minClose[i] = noClose
	}
	vi.maxInv = 0
}

// insert adds a superblock that closed at closeClock to the bucket for its
// invalid count. The caller guarantees it is not already indexed.
func (vi *victimIndex) insert(id, inv int, closeClock uint64) {
	head := vi.heads[inv]
	vi.next[id] = head
	vi.prev[id] = -1
	if head >= 0 {
		vi.prev[head] = int32(id)
	}
	vi.heads[inv] = int32(id)
	vi.bucketOf[id] = int32(inv)
	if closeClock < vi.minClose[inv] {
		vi.minClose[inv] = closeClock
	}
	if inv > vi.maxInv {
		vi.maxInv = inv
	}
}

// remove unlinks a superblock from its bucket. No-op if not indexed.
func (vi *victimIndex) remove(id int) {
	b := vi.bucketOf[id]
	if b < 0 {
		return
	}
	n, p := vi.next[id], vi.prev[id]
	if p >= 0 {
		vi.next[p] = n
	} else {
		vi.heads[b] = n
		if n < 0 {
			vi.minClose[b] = noClose
		}
	}
	if n >= 0 {
		vi.prev[n] = p
	}
	vi.next[id] = -1
	vi.prev[id] = -1
	vi.bucketOf[id] = -1
}

// bump moves an indexed superblock up one bucket after one of its pages was
// invalidated.
func (vi *victimIndex) bump(id int, closeClock uint64) {
	b := vi.bucketOf[id]
	vi.remove(id)
	vi.insert(id, int(b)+1, closeClock)
}

// top returns the highest non-empty bucket, walking the lazy bound down.
func (vi *victimIndex) top() int {
	for vi.maxInv > 0 && vi.heads[vi.maxInv] < 0 {
		vi.maxInv--
	}
	return vi.maxInv
}

// selectVictim returns the closed superblock with the highest policy score,
// or -1 when no closed superblock has any invalid page (GC would make no
// progress). Ties are broken toward the lowest superblock ID, as a scan in
// ascending ID order with a strict comparison would, so traces stay
// reproducible.
//
// It visits buckets from most-invalid downward and scores only those the
// policy's bound cannot rule out against the incumbent: a VictimScoreBound
// ends the descent, a VictimAgedScoreBound skips the one bucket. Either way a
// bound equal to the best score still gets scanned: a tie with a lower ID
// wins.
func (f *FTL) selectVictim() int {
	if f.victimHook != nil {
		return f.victimHook()
	}
	vi := &f.vidx
	best := -1
	bestScore := math.Inf(-1)
	bound, hasBound := f.policy.(VictimScoreBound)
	aged, hasAged := f.policy.(VictimAgedScoreBound)
	for b := vi.top(); b >= 1; b-- {
		head := vi.heads[b]
		if head < 0 {
			continue
		}
		if hasBound && bound.MaxScore(b, f.dataPages) < bestScore {
			break
		}
		if hasAged && aged.MaxAgedScore(b, f.dataPages, f.clock-vi.minClose[b]) < bestScore {
			continue
		}
		oldest := uint64(noClose)
		for id := head; id >= 0; id = vi.next[id] {
			sb := &f.sbs[id]
			view := SBView{
				ID:         int(id),
				Stream:     sb.stream,
				GCClass:    sb.gcClass,
				Valid:      sb.valid,
				Invalid:    b,
				DataPages:  f.dataPages,
				CloseClock: sb.closeClock,
			}
			score := f.policy.Score(view, f.clock)
			if score > bestScore || (score == bestScore && int(id) < best) {
				bestScore = score
				best = int(id)
			}
			if sb.closeClock < oldest {
				oldest = sb.closeClock
			}
		}
		vi.minClose[b] = oldest
	}
	return best
}

// checkVictimIndex validates the bucket index against superblock state:
// closed superblocks appear in exactly the bucket matching their invalid
// count, nothing else is indexed, the intrusive lists are well-linked, and
// every bucket's minClose bounds its members (noClose when it has none).
func (f *FTL) checkVictimIndex() error {
	vi := &f.vidx
	for id := range f.sbs {
		sb := &f.sbs[id]
		b := vi.bucketOf[id]
		if sb.state != SBClosed {
			if b >= 0 {
				return fmt.Errorf("ftl: victim index holds superblock %d in state %d", id, sb.state)
			}
			continue
		}
		want := int32(f.dataPages - sb.valid)
		if b != want {
			return fmt.Errorf("ftl: victim index has superblock %d in bucket %d, invalid count is %d", id, b, want)
		}
	}
	for inv, head := range vi.heads {
		if head < 0 && vi.minClose[inv] != noClose {
			return fmt.Errorf("ftl: empty bucket %d keeps close-clock bound %d", inv, vi.minClose[inv])
		}
		prev := int32(-1)
		for id := head; id >= 0; id = vi.next[id] {
			if cc := f.sbs[id].closeClock; cc < vi.minClose[inv] {
				return fmt.Errorf("ftl: superblock %d closed at %d, below bucket %d's bound %d", id, cc, inv, vi.minClose[inv])
			}
			if vi.bucketOf[id] != int32(inv) {
				return fmt.Errorf("ftl: superblock %d linked in bucket %d but records bucket %d", id, inv, vi.bucketOf[id])
			}
			if vi.prev[id] != prev {
				return fmt.Errorf("ftl: superblock %d in bucket %d has prev %d, want %d", id, inv, vi.prev[id], prev)
			}
			prev = id
		}
	}
	return nil
}
