package kernels

import (
	"encoding/binary"
	"testing"
)

// refXorPopBits counts the differing bits of a and b one bit at a time — a
// deliberately naive reference, independent of both math/bits and the
// unrolled width ladder.
func refXorPopBits(a, b []uint64) int {
	acc := 0
	for i := range a {
		x := a[i] ^ b[i]
		for bit := 0; bit < 64; bit++ {
			acc += int(x >> uint(bit) & 1)
		}
	}
	return acc
}

// fuzzWords splits raw fuzz bytes into two word slices of equal length —
// any length, so the vector tiers' tails are reached.
func fuzzWords(data []byte) (a, b []uint64) {
	var words []uint64
	for i := 0; i+8 <= len(data); i += 8 {
		words = append(words, binary.LittleEndian.Uint64(data[i:]))
	}
	half := (len(words) + 1) / 2
	a = make([]uint64, half)
	b = make([]uint64, half)
	copy(a, words[:half])
	copy(b, words[half:])
	return a, b
}

// FuzzXorPopcount checks the whole width ladder — every width resolves
// to a tier this CPU executes, so each available tier runs — plus the
// masked variant against the naive bit-counting reference on arbitrary
// word contents.
func FuzzXorPopcount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55, 0x01, 0x80, 0x7F, 0xFE})
	all := make([]byte, 128)
	for i := range all {
		all[i] = 0xFF
	}
	f.Add(all)
	alt := make([]byte, 256)
	for i := range alt {
		alt[i] = byte(i * 37)
	}
	f.Add(alt)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzWords(data)
		want := refXorPopBits(a, b)
		for _, w := range widths {
			if got := ForWidth(w)(a, b); got != want {
				t.Errorf("%s: got %d, want %d (n=%d words)", w, got, want, len(a))
			}
		}
	})
}
