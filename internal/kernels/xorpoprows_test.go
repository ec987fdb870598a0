package kernels

import (
	"testing"
	"testing/quick"

	"bitflow/internal/workload"
)

// refXorPopRows computes the row-batched accumulation the slow way.
func refXorPopRows(rows [][]uint64, filt []uint64) int {
	acc := 0
	off := 0
	for _, r := range rows {
		acc += refXorPop(r, filt[off:off+len(r)])
		off += len(r)
	}
	return acc
}

func TestXorPopRowsAgree(t *testing.T) {
	r := workload.NewRNG(70)
	for _, tc := range []struct{ nRows, rowLen int }{
		{1, 8}, {3, 8}, {3, 24}, {5, 16}, {3, 40}, {1, 64},
	} {
		rows := make([][]uint64, tc.nRows)
		for i := range rows {
			rows[i] = randWords(r, tc.rowLen)
		}
		filt := randWords(r, tc.nRows*tc.rowLen)
		want := refXorPopRows(rows, filt)
		for _, w := range widths {
			if got := RowsForWidth(w)(rows, filt); got != want {
				t.Errorf("rows=%d len=%d width=%v: got %d want %d", tc.nRows, tc.rowLen, w, got, want)
			}
		}
	}
}

func TestXorPopRowsScalarAnyLength(t *testing.T) {
	r := workload.NewRNG(71)
	for _, rowLen := range []int{1, 3, 7, 9} {
		rows := [][]uint64{randWords(r, rowLen), randWords(r, rowLen), randWords(r, rowLen)}
		filt := randWords(r, 3*rowLen)
		if got, want := XorPopRows64(rows, filt), refXorPopRows(rows, filt); got != want {
			t.Errorf("rowLen=%d: got %d want %d", rowLen, got, want)
		}
	}
}

// TestXorPopRowsQuick cross-checks every width as a property.
func TestXorPopRowsQuick(t *testing.T) {
	f := func(seed uint64, nr, rl uint8) bool {
		nRows := int(nr)%4 + 1
		rowLen := (int(rl)%4 + 1) * 8 // multiple of 8 → all widths apply
		r := workload.NewRNG(seed)
		rows := make([][]uint64, nRows)
		for i := range rows {
			rows[i] = randWords(r, rowLen)
		}
		filt := randWords(r, nRows*rowLen)
		want := refXorPopRows(rows, filt)
		for _, w := range widths {
			if RowsForWidth(w)(rows, filt) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorPopRowsMatchesFlatKernel(t *testing.T) {
	// A single row must agree with the flat kernel of the same width.
	r := workload.NewRNG(72)
	a := randWords(r, 24)
	bb := randWords(r, 24)
	for _, w := range widths {
		if got, want := RowsForWidth(w)([][]uint64{a}, bb), ForWidth(w)(a, bb); got != want {
			t.Errorf("width %v: rows %d flat %d", w, got, want)
		}
	}
}

func TestRowsForWidthPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RowsForWidth(5) did not panic")
		}
	}()
	RowsForWidth(Width(5))
}
