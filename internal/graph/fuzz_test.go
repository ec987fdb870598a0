package graph

import (
	"bytes"
	"errors"
	"testing"

	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// fuzzTopology decodes an arbitrary byte string into a small valid
// network: the first bytes pick the input dims, the rest append layers
// (conv3x3 / pool) until a stop byte or the budget runs out, and a final
// dense classifier closes the graph. The decoder is total — every byte
// string yields SOME topology — so the fuzzer explores structure, not
// parser crashes.
func fuzzTopology(seed uint64, shape []byte) (*Builder, int, int, int) {
	at := 0
	next := func() byte {
		if at >= len(shape) {
			return 0
		}
		b := shape[at]
		at++
		return b
	}
	inH := 4 + int(next()%5)*2 // 4..12, even
	inW := 4 + int(next()%5)*2
	inC := 64 << (next() % 2) // 64 or 128: one or two packed words
	b := NewBuilder("fuzz", inH, inW, inC, feat())

	h, w := inH, inW
	convs := 0
	for layers := 0; layers < 4; layers++ {
		op := next()
		switch op % 3 {
		case 0:
			k := 64 << (op >> 2 & 1)
			b.Conv3x3(fuzzName("c", layers), k)
			convs++
		case 1:
			if h < 4 || w < 4 {
				continue
			}
			b.Pool(fuzzName("p", layers), 2, 2, 2)
			h, w = h/2, w/2
		default:
			layers = 4
		}
	}
	units := 2 + int(next()%9) // 2..10 classes
	b.Dense("out", units)
	return b, inH, inW, inC
}

func fuzzName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// FuzzLoadArbitraryBytes pins the loader's untrusted-input contract:
// feeding ANY byte string to Load must return a network or a typed
// error (*FormatError / *ChecksumError) — never panic, never allocate
// unboundedly. The seed corpus includes a valid artifact plus targeted
// corruptions of its header, specs, and footer.
func FuzzLoadArbitraryBytes(f *testing.F) {
	valid := func() []byte {
		b, _, _, _ := fuzzTopology(1, []byte{0})
		net, err := b.Build(RandomWeights{Seed: 1})
		if err != nil {
			f.Fatalf("building seed network: %v", err)
		}
		var buf bytes.Buffer
		if _, err := net.Save(&buf); err != nil {
			f.Fatalf("saving seed network: %v", err)
		}
		return buf.Bytes()
	}()
	// A second artifact whose topology contains a fusable conv→pool pair,
	// so the corpus exercises fusion in the loaded chain too.
	validFused := func() []byte {
		b, _, _, _ := fuzzTopology(1, []byte{2, 2, 0, 0, 1, 2, 3})
		net, err := b.Build(RandomWeights{Seed: 2})
		if err != nil {
			f.Fatalf("building fused seed network: %v", err)
		}
		if net.Fusion().Pairs == 0 {
			f.Fatal("fused seed network has no fused pairs")
		}
		var buf bytes.Buffer
		if _, err := net.Save(&buf); err != nil {
			f.Fatalf("saving fused seed network: %v", err)
		}
		return buf.Bytes()
	}()
	f.Add([]byte{})
	f.Add([]byte("BFLW"))
	f.Add(valid)
	f.Add(validFused)
	f.Add(validFused[:len(validFused)*2/3]) // truncated mid-weights
	f.Add(valid[:len(valid)-16])            // legacy: no footer
	f.Add(valid[:len(valid)/2])             // truncated payload
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	header := append([]byte(nil), valid[:64]...)
	f.Add(header)
	f.Add(hostileNameLen) // a name length far past the end of the file
	f.Add(hostilePlanes)  // huge planes declared, the first blob cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		net, info, err := LoadWithInfo(bytes.NewReader(data), feat())
		if err != nil {
			var fe *FormatError
			var ce *ChecksumError
			if !errors.As(err, &fe) && !errors.As(err, &ce) {
				t.Fatalf("untyped load error %T: %v", err, err)
			}
			return
		}
		if net == nil || info == nil {
			t.Fatal("nil network/info without error")
		}
		// A network the loader accepted must actually run.
		x := workload.RandTensor(workload.NewRNG(7), net.InH, net.InW, net.InC)
		if _, ierr := net.InferChecked(x); ierr != nil {
			t.Fatalf("loaded network cannot infer: %v", ierr)
		}
	})
}

// FuzzSerializeRoundTrip pins the serialization contract: for an
// arbitrary small topology, save→load→Infer must be bit-identical to the
// original network's logits — including when the model is loaded under a
// narrower kernel tier than it was built with — and so must every clone
// of the loaded network, whose chains read what the original's does
// (the unfused one plus the planes fusion saves). The seed corpus runs as
// part of every plain `go test ./internal/graph`.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte{0})
	f.Add(uint64(2), []byte{1, 2, 3})
	f.Add(uint64(3), []byte{7, 0, 9, 4})
	f.Add(uint64(130), []byte{2, 2, 1, 0, 1, 8})
	f.Add(uint64(9), []byte{255, 128, 64, 32, 16, 8, 4})
	f.Add(uint64(42), []byte{4, 4, 1, 0, 0, 1, 0, 200})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		builder, inH, inW, inC := fuzzTopology(seed, shape)
		net, err := builder.Build(RandomWeights{Seed: seed})
		if err != nil {
			t.Skipf("topology rejected by Build (fine for a fuzzer): %v", err)
		}

		x := workload.RandTensor(workload.NewRNG(seed+1), inH, inW, inC)
		want := net.Infer(x)

		var buf bytes.Buffer
		wrote, err := net.Save(&buf)
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("Save reported %d bytes, wrote %d", wrote, buf.Len())
		}

		// Load twice: once under the native tier, once forced down to the
		// 64-bit scalar tier — packed weights are tier-independent, so both
		// must reproduce the original logits exactly.
		tiers := map[string]sched.Features{
			"native": feat(),
			"narrow": feat().WithMaxWidth(kernels.W64),
		}
		for name, ft := range tiers {
			loaded, err := Load(bytes.NewReader(buf.Bytes()), ft)
			if err != nil {
				t.Fatalf("%s: Load of a just-saved model: %v", name, err)
			}
			if len(loaded.Layers()) != len(net.Layers()) {
				t.Fatalf("%s: loaded %d layers, saved %d", name, len(loaded.Layers()), len(net.Layers()))
			}
			// Every clone lays a fresh chain over the loaded nodes; the
			// unfused one also holds the planes fusion saves.
			for clone, n := range map[string]*Network{
				"loaded": loaded, "clone": loaded.Clone(), "unfused": loaded.CloneUnfused(), "uncompressed": loaded.CloneUncompressed(),
			} {
				chain := net.ActivationBytes()
				if clone == "unfused" {
					chain += 8 * net.Fusion().EliminatedWords
				}
				if n.ActivationBytes() != chain {
					t.Fatalf("%s %s: chain %d bytes, want %d", name, clone, n.ActivationBytes(), chain)
				}
				got := n.Infer(x)
				if len(got) != len(want) {
					t.Fatalf("%s %s: emits %d logits, original %d", name, clone, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s: logit %d: %v, original %v (seed=%d shape=%v)",
							name, clone, i, got[i], want[i], seed, shape)
					}
				}
			}
		}
	})
}
