package core

import (
	"bitflow/internal/bitpack"
	"bitflow/internal/sched"
)

// Window packing changes only how one window is laid out in words, so it
// is a step inside the ordinary conv forward, like the filter fold.
// Channel packing (§III-B) gives a C = 3 first layer 3 live bits in each
// 64-bit pixel word, and a 3×3 window 9 words for 27 useful bits. When a
// conv's whole receptive field fits one word (KH·KW·C ≤ 64, so WPP = 1),
// NewConvPacked re-packs its bank once into one word per filter — tap
// t = i·KW + j puts its C bits at bit t·C — and ForwardPacked gathers
// each window into one word the same way, then sweeps a run of windows
// at a time against all K filters with the threshold compare fused in
// (wordRange, kernels.Epilogue.SweepBits). Such a bank never folds: at
// one word per filter the fused sweep compares all 64 filters of an
// output word per window, so sweeping fewer distinct ones saves nothing.
//
// The counts are exactly those of the channel-packed window: a margin
// pixel is a zero word (−1 features) inside the window word just as
// outside it, pad bits are zero in both operands (NewConvPacked refuses a
// bank with a bit set past C), and N = KH·KW·C is unchanged. So the
// packed filter, and with it the model file, keeps its channel layout;
// Conv.Forward keeps its S-word gather as the oracle that does not share
// this path.

// WindowWords returns the words ForwardPacked gathers per window and
// sweeps per filter: 1 when the conv is window-packed (KH·KW·C ≤ 64),
// otherwise KH·KW·WPP.
func (cv *Conv) WindowWords() int {
	if cv.bank != nil {
		return 1
	}
	return cv.Shape.KH * cv.rowLen
}

// windowPack re-packs a bank with KH·KW·C ≤ 64 into one word per filter,
// tap t of filter k at bits [t·C, (t+1)·C) of word k.
func windowPack(pf *bitpack.PackedFilter) []uint64 {
	taps := pf.KH * pf.KW
	bank := make([]uint64, pf.K)
	for k := range bank {
		for t, w := range pf.Words[k*taps : (k+1)*taps] {
			bank[k] |= w << uint(t*pf.C)
		}
	}
	return bank
}

// wordScratch is one worker chunk's scratch for wordRange: the column
// words of one run, its window words and their threshold bits.
type wordScratch struct {
	cols [192]uint64
	wins [128]uint64
	bits [256]uint64
}

// wordRange is windowRange for a window-packed conv. It takes the output
// pixels in runs along one output row. For each pool row of a run it
// builds, per input column the run reads, the column word of the conv's
// KH input rows (row a at bits a·KW·C), and ORs KW adjacent column words
// (column b at bits b·C) into each window word: windowPack's layout.
// Every shift is below 64 (t·C < KH·KW·C ≤ 64); the masks only tell the
// compiler so. All the run's windows are then thresholded at once by
// Epilogue.SweepBits over the whole bank, straight into the output row
// when the conv is unpooled, and otherwise into scratch, from which each
// output pixel gets the OR of its pool positions' bits, its trailing
// words cleared.
func (cv *Conv) wordRange(in *bitpack.Packed, p sched.PoolShape, out *bitpack.Packed, start, end int) {
	var sc wordScratch
	s := cv.Shape
	P, W := p.KH*p.KW, len(cv.epi.Flip)
	cs, ps, c := s.Stride, p.Stride, uint(s.InC)
	// A run of n pixels reads ((n−1)·ps + p.KW − 1)·cs + KW input columns
	// and makes n·P windows of W bit words each.
	cols, wins, bits := sc.cols[:], sc.wins[:], sc.bits[:]
	run := 0
	if free := len(cols) - (p.KW-1)*cs - s.KW; free >= 0 {
		run = min(len(wins)/P, len(bits)/(P*W), free/(ps*cs)+1)
	}
	if run < 1 {
		// Only a pool window or a stride beyond the stack scratch
		// allocates: once per worker chunk.
		run = 1
		cols, wins, bits = make([]uint64, (p.KW-1)*cs+s.KW), make([]uint64, P), make([]uint64, P*W)
	}
	for idx := start; idx < end; {
		py, px := idx/p.OutW, idx%p.OutW
		n := min(end-idx, p.OutW-px, run)
		span, runWins := cols[:((n-1)*ps+p.KW-1)*cs+s.KW], wins[:n*P]
		clear(runWins)
		for i := 0; i < p.KH; i++ {
			clear(span)
			off := in.PixelOffset((py*ps+i)*cs-s.Pad, px*ps*cs-s.Pad)
			for a := 0; a < s.KH; a, off = a+1, off+in.RowStride {
				sh := uint(a*s.KW) * c & 63
				for x, v := range in.Words[off : off+len(span)] {
					span[x] |= v << sh
				}
			}
			// Window (i, q, j), pixel q's pool position (i, j), is
			// runWins[(i·n + q)·p.KW + j].
			for j := 0; j < p.KW; j++ {
				row := runWins[i*n*p.KW+j:]
				for b := 0; b < s.KW; b++ {
					sh := uint(b) * c & 63
					for q := 0; q < n; q++ {
						row[q*p.KW] |= span[(q*ps+j)*cs+b] << sh
					}
				}
			}
		}
		o := out.PixelOffset(py, px)
		direct := P == 1 && out.WPP == W
		dst := bits
		if direct {
			dst = out.Words[o : o+n*W]
		}
		cv.epi.SweepBits(runWins, cv.bank, dst)
		if !direct {
			for q := 0; q < n; q, o = q+1, o+out.WPP {
				for w := range out.Words[o : o+out.WPP] {
					var v uint64
					for i := 0; i < p.KH && w < W; i++ {
						for j := 0; j < p.KW; j++ {
							v |= bits[((i*n+q)*p.KW+j)*W+w]
						}
					}
					out.Words[o+w] = v
				}
			}
		}
		idx += n
	}
}
