package core

import (
	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/nand"
)

// Feature encoding widths in hexadecimal digits (§III-B: "The number of
// digits used for each feature is chosen so that most cases can be handled
// without overflow").
const (
	digitsPrevLifetime = 6 // up to ~16.7M page writes between updates
	digitsIOLen        = 3 // request size up to 4095 pages
	digitsChunkWrite   = 4
	digitsChunkRead    = 4
	digitsRWRat        = 2
)

// InputDim is the Page Classifier input width: every hexadecimal digit is
// one neuron, plus one binary neuron for is_seq.
const InputDim = digitsPrevLifetime + digitsIOLen + 1 + digitsChunkWrite + digitsChunkRead + digitsRWRat

// MaxLifetimeFeature saturates prev_lifetime for never-written pages.
const MaxLifetimeFeature = 1<<(4*digitsPrevLifetime) - 1

// FeatureExtractor maintains the request- and locality-derived statistics
// behind the paper's feature set: io_len and is_seq from the current
// request, chunk_write/chunk_read (recent traffic to the page's enclosing
// chunk), and rw_rat (the global read/write ratio). Chunk and global
// counters are halved at every training window so "recent" tracks the
// workload (§III-B).
type FeatureExtractor struct {
	chunkPages int
	chunkW     []uint32
	chunkR     []uint32
	reads      uint64
	writes     uint64
}

// NewFeatureExtractor builds an extractor for a drive with exportedPages
// logical pages, grouping chunkPages consecutive pages per chunk (the paper
// suggests a "larger chunk"; 64 pages = 1 MiB at 16 KiB pages).
func NewFeatureExtractor(exportedPages, chunkPages int) *FeatureExtractor {
	if chunkPages < 1 {
		chunkPages = 1
	}
	chunks := (exportedPages + chunkPages - 1) / chunkPages
	return &FeatureExtractor{
		chunkPages: chunkPages,
		chunkW:     make([]uint32, chunks),
		chunkR:     make([]uint32, chunks),
	}
}

func (fe *FeatureExtractor) chunkOf(lpn nand.LPN) int { return int(lpn) / fe.chunkPages }

// NoteWrite records a page write for chunk/global statistics. Call after
// encoding the write's features so the features describe history, not the
// write itself.
func (fe *FeatureExtractor) NoteWrite(lpn nand.LPN) {
	fe.chunkW[fe.chunkOf(lpn)]++
	fe.writes++
}

// NoteRead records a page read.
func (fe *FeatureExtractor) NoteRead(lpn nand.LPN) {
	fe.chunkR[fe.chunkOf(lpn)]++
	fe.reads++
}

// RWRatio returns the global read fraction in [0,1].
func (fe *FeatureExtractor) RWRatio() float64 {
	total := fe.reads + fe.writes
	if total == 0 {
		return 0
	}
	return float64(fe.reads) / float64(total)
}

// Decay halves every counter; the trainer calls it at window boundaries so
// the statistics emphasize recent traffic.
func (fe *FeatureExtractor) Decay() {
	for i := range fe.chunkW {
		fe.chunkW[i] /= 2
		fe.chunkR[i] /= 2
	}
	fe.reads /= 2
	fe.writes /= 2
}

// Encode assembles the feature vector for a write to lpn whose previous
// version lived prevLifetime virtual-clock ticks (MaxLifetimeFeature when
// never written), arriving in a request of ioLen pages with sequentiality
// seq. dst is reused when large enough.
func (fe *FeatureExtractor) Encode(dst []float64, lpn nand.LPN, prevLifetime uint64, ioLen int, seq bool) []float64 {
	dst = dst[:0]
	dst = ml.HexDigits(dst, prevLifetime, digitsPrevLifetime)
	return fe.EncodeTail(dst, lpn, ioLen, seq)
}

// EncodeTail appends the feature-tail values (io_len, is_seq,
// chunk_write, chunk_read, rw_rat) for a write to lpn onto dst. Unlike
// Encode it does not reset dst, so callers can prepend the prev_lifetime
// digits themselves.
func (fe *FeatureExtractor) EncodeTail(dst []float64, lpn nand.LPN, ioLen int, seq bool) []float64 {
	dst = ml.HexDigits(dst, uint64(ioLen), digitsIOLen)
	dst = ml.Bit(dst, seq)
	c := fe.chunkOf(lpn)
	dst = ml.HexDigits(dst, uint64(fe.chunkW[c]), digitsChunkWrite)
	dst = ml.HexDigits(dst, uint64(fe.chunkR[c]), digitsChunkRead)
	dst = ml.Ratio01(dst, fe.RWRatio(), digitsRWRat)
	return dst
}
