package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"bitflow/internal/kernels"
	"bitflow/internal/workload"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := net.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Save reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := Load(&buf, feat())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != net.Name || loaded.Classes != net.Classes {
		t.Errorf("identity: %q/%d vs %q/%d", loaded.Name, loaded.Classes, net.Name, net.Classes)
	}
	if len(loaded.Layers()) != len(net.Layers()) {
		t.Fatalf("layer counts differ")
	}

	x := workload.RandTensor(workload.NewRNG(31), 32, 32, 3)
	want := net.Infer(x)
	got := loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: loaded %v original %v", i, got[i], want[i])
		}
	}
}

func TestLoadOnNarrowerMachine(t *testing.T) {
	// A model saved under the AVX-512-class scheduler must load and give
	// identical results on a scalar-only machine — packed weights are
	// tier-independent.
	net, err := TinyVGG(feat(), RandomWeights{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	narrow := feat().WithMaxWidth(kernels.W64)
	loaded, err := Load(&buf, narrow)
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(33), 32, 32, 3)
	want := net.Infer(x)
	got := loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs across machine widths", i)
		}
	}
}

func TestSaveSizeMatchesModelSize(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The file is dominated by the packed weights: size must sit within
	// a few KB of ModelSize().BinarizedBytes.
	ms := net.ModelSize()
	overhead := int64(buf.Len()) - ms.BinarizedBytes
	if overhead < 0 || overhead > 4096 {
		t.Errorf("file %d bytes vs packed weights %d (overhead %d)", buf.Len(), ms.BinarizedBytes, overhead)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE0000000000000000"),
		"truncated": append([]byte("BFLW"), 1, 0, 0, 0, 5, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data), feat()); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the integrity footer so the corruption reaches the version
	// check (with the footer on, the checksum catches it first).
	data := buf.Bytes()[:buf.Len()-16]
	data[4] = 99 // bump version field
	if _, err := Load(bytes.NewReader(data), feat()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
}

func TestLoadChecksumCatchesCorruption(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the packed weights: structurally the
	// file still decodes, so only the checksum can catch it.
	data := append([]byte(nil), buf.Bytes()...)
	data[buf.Len()/2] ^= 0x10
	_, _, err = LoadWithInfo(bytes.NewReader(data), feat())
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("expected *ChecksumError, got %v", err)
	}
	if ce.Want == ce.Got {
		t.Errorf("checksum error with equal want/got: %+v", ce)
	}
}

func TestLoadLegacyFileWithoutFooter(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := buf.Bytes()[:buf.Len()-16] // drop the footer: a pre-checksum artifact
	loaded, info, err := LoadWithInfo(bytes.NewReader(legacy), feat())
	if err != nil {
		t.Fatalf("legacy file must still load: %v", err)
	}
	if info.Checksummed {
		t.Error("legacy file reported as checksummed")
	}
	if info.Checksum == 0 {
		t.Error("legacy load did not compute a payload checksum")
	}
	x := workload.RandTensor(workload.NewRNG(40), 32, 32, 3)
	want, got := net.Infer(x), loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs on legacy load", i)
		}
	}
}

func TestLoadWithInfoReportsVerifiedChecksum(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wrote, err := net.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := LoadWithInfo(bytes.NewReader(buf.Bytes()), feat())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Checksummed {
		t.Error("fresh Save output not recognized as checksummed")
	}
	if info.Bytes != wrote {
		t.Errorf("info.Bytes = %d, Save wrote %d", info.Bytes, wrote)
	}
}

func TestLoadTruncationIsTypedError(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Every truncation point must yield a typed *FormatError (truncating
	// into the footer turns the file into an unchecksummed payload with a
	// ragged tail — still a format error, never a panic).
	for _, cut := range []int{1, 5, 30, 200, buf.Len() / 2, buf.Len() - 17, buf.Len() - 8} {
		data := buf.Bytes()[:cut]
		_, _, err := LoadWithInfo(bytes.NewReader(data), feat())
		if err == nil {
			t.Errorf("cut at %d: expected error", cut)
			continue
		}
		var fe *FormatError
		var ce *ChecksumError
		if !errors.As(err, &fe) && !errors.As(err, &ce) {
			t.Errorf("cut at %d: untyped error %T: %v", cut, err, err)
		}
	}
}

func TestLoadRejectsTruncatedWeights(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-1000]
	if _, err := Load(bytes.NewReader(data), feat()); err == nil {
		t.Error("expected error on truncated weights")
	}
}

func TestLoadRejectsCorruptSpecKind(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the footer so the decoder (not the checksum) sees the bad
	// spec kind.
	data := buf.Bytes()[:buf.Len()-16]
	// The first spec's kind byte sits right after the fixed header:
	// magic(4) + version(4) + name(4+len) + 4×u32.
	off := 4 + 4 + 4 + len(net.Name) + 16
	data[off] = 200
	if _, err := Load(bytes.NewReader(data), feat()); err == nil {
		t.Error("expected error on corrupt spec kind")
	}
	data[off] = byte(specConv)
	// A zero window or stride would divide by zero in the shape
	// arithmetic; it must be a typed error. The spec's six u32 fields
	// follow its kind byte and name: k, kh, kw, stride, pad, units.
	params := off + 1 + 4 + len(net.arch[0].name)
	for _, field := range []int{1, 2, 3} {
		at := params + 4*field
		saved := data[at]
		data[at] = 0
		_, err := Load(bytes.NewReader(data), feat())
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("spec field %d zeroed: got %v, want *FormatError", field, err)
		}
		data[at] = saved
	}
}

// savedBytes returns net's Save output.
func savedBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveIsByteIdentical pins Save's output: the BFLW bytes must not
// move under a codec change, on any kernel tier. The figures are the
// size and whole-file CRC64-ECMA of each artifact. The second net
// carries every record kind: a float-stem blob and affine, conv and
// dense thresholds, and a classifier affine.
func TestSaveIsByteIdentical(t *testing.T) {
	for _, w := range []kernels.Width{kernels.W64, kernels.W512} {
		f := feat().WithMaxWidth(w)
		tiny, err := TinyVGG(f, RandomWeights{Seed: 38})
		if err != nil {
			t.Fatal(err)
		}
		bn, err := NewBuilder("pin-bn", 8, 8, 3, f).
			FloatConv("f1", 64, 3, 3, 1, 1).BatchNorm("f1/bn").
			Conv3x3("c1", 64).BatchNorm("c1/bn").Pool("p1", 2, 2, 2).
			Dense("d1", 16).BatchNorm("d1/bn").
			Dense("d2", 4).BatchNorm("d2/bn").
			Build(&bnSource{RandomWeights: RandomWeights{Seed: 43}})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			net  *Network
			size int
			crc  uint64
		}{
			{tiny, 281261, 0x067b6880c5c0f4c9},
			{bn, 15429, 0x595a9a7d9dd7efe6},
		} {
			data := savedBytes(t, tc.net)
			if got := crc64.Checksum(data, crcTable); len(data) != tc.size || got != tc.crc {
				t.Errorf("%s/%v: Save wrote %d bytes with CRC64 %016x, want %d and %016x",
					tc.net.Name, w, len(data), got, tc.size, tc.crc)
			}
		}
	}
}

// TestBitFlipsAreChecksumErrors flips one bit at sampled payload
// offsets of a checksummed artifact. Wherever the flip lands, in a
// length, a spec or a weight, Load must report *ChecksumError: the
// decoder's own failures must not mask the footer.
func TestBitFlipsAreChecksumErrors(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, net)
	n := len(data) - checksumFooterLen
	flips := 0
	for i := 0; i < n; i += 1 + i/64 {
		for _, bit := range []byte{0x01, 0x80} {
			data[i] ^= bit
			_, _, err := LoadWithInfo(bytes.NewReader(data), feat())
			data[i] ^= bit
			flips++
			var ce *ChecksumError
			if !errors.As(err, &ce) {
				t.Errorf("bit %#02x at offset %d: got %v, want *ChecksumError", bit, i, err)
			}
		}
	}
	if flips != 1156 {
		t.Fatalf("sampled %d flips, want 1156", flips)
	}
}

// hostileNameLen is a 36-byte header whose model-name length field
// declares 0x30630004 bytes; 20 follow.
var hostileNameLen = []byte{
	0x42, 0x46, 0x4c, 0x57, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x63, 0x30,
	0x40, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
	0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
}

// TestLengthFieldsAllocateWhatIsRead: a declared length costs no more
// memory than the bytes that follow it. The hostile header's name
// length once made Load allocate 774 MiB before it failed.
func TestLengthFieldsAllocateWhatIsRead(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := LoadWithInfo(bytes.NewReader(hostileNameLen), feat())
	runtime.ReadMemStats(&after)
	var fe *FormatError
	if !errors.As(err, &fe) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want a *FormatError wrapping io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("LoadWithInfo allocated %d bytes on a 36-byte file, want < 1 MiB", d)
	}
}

// TestLoadHoldsWeightsOnce bounds what a cold Load of VGG-16 allocates
// at 1.25× the artifact: the weights are decoded once, into the slices
// the operators keep, and the rest is the activation buffers and the
// plan. Reading the file whole, then decoding it through temporaries,
// cost 9.1× the artifact.
func TestLoadHoldsWeightsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("VGG-16 build")
	}
	net, err := VGG16(feat(), RandomWeights{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, net)
	net = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := Load(bytes.NewReader(data), feat())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("Load of a %d-byte artifact allocated %d bytes (%.2fx)", len(data), d, float64(d)/float64(len(data)))
	if float64(d) > 1.25*float64(len(data)) {
		t.Errorf("Load allocated %d bytes, over 1.25x the %d-byte artifact", d, len(data))
	}
	runtime.KeepAlive(loaded)
}

// TestLoadReadErrorIsFormatError: a stream that fails mid-read is a
// *FormatError that wraps the reader's error.
func TestLoadReadErrorIsFormatError(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	data := savedBytes(t, net)
	for _, cut := range []int{0, 3, 100, len(data) / 2, len(data) - 8} {
		_, _, err := LoadWithInfo(io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom)), feat())
		var fe *FormatError
		if !errors.As(err, &fe) || !errors.Is(err, boom) {
			t.Errorf("cut at %d: got %v, want a *FormatError wrapping the read error", cut, err)
		}
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestLoadRefusesOversizedStream: Load counts what it reads and refuses
// a stream past maxModelBytes, however well its model decodes, in
// memory that does not grow with the stream.
func TestLoadRefusesOversizedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 2 GiB")
	}
	net, err := TinyVGG(feat(), RandomWeights{Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = LoadWithInfo(io.MultiReader(bytes.NewReader(savedBytes(t, net)), zeros{}), feat())
	runtime.ReadMemStats(&after)
	var fe *FormatError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("got %v, want a *FormatError for an oversized model", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Errorf("reading the oversized stream allocated %d bytes", d)
	}
}

// hostilePlanes is a 123-byte file: a 2048×2048×256 input, conv, pool
// and dense specs, and the first blob cut inside its count. A loader
// that laid the chain while it compiled allocated 128 MiB of input plane
// on it before failing.
var hostilePlanes = []byte{
	0x42, 0x46, 0x4c, 0x57, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x08, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
	0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x63, 0x40, 0x00,
	0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01,
	0x00, 0x00, 0x00, 0x70, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
	0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x03, 0x01, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x01,
	0x00, 0x00, 0x00,
}

// TestTruncatedModelAllocatesNoPlanes: Load lays the activation chain
// only after the whole model has decoded and passed its footer, so a
// header declaring huge planes costs nothing when its weights are
// missing.
func TestTruncatedModelAllocatesNoPlanes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := LoadWithInfo(bytes.NewReader(hostilePlanes), feat())
	runtime.ReadMemStats(&after)
	var fe *FormatError
	if !errors.As(err, &fe) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want a *FormatError wrapping io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("LoadWithInfo allocated %d bytes on a %d-byte file, want < 1 MiB", d, len(hostilePlanes))
	}
}

// hostileBlob is a 160-byte file: an 8×8×64 input, a conv of 2^20 3×3
// filters and a dense, the conv blob's matching count (9,437,184 words,
// 72 MiB) and then only 64 bytes of words.
func hostileBlob() []byte {
	le := binary.LittleEndian
	b := append([]byte("BFLW"), make([]byte, 4)...)
	le.PutUint32(b[4:], modelVersion)
	for _, v := range []uint32{0, 8, 8, 64, 2} { // name length, input dims, spec count
		b = le.AppendUint32(b, v)
	}
	b = append(b, byte(specConv))
	b = le.AppendUint32(b, 1)
	b = append(b, 'c')
	for _, v := range []uint32{1 << 20, 3, 3, 1, 1, 0} {
		b = le.AppendUint32(b, v)
	}
	b = append(b, byte(specDense))
	b = le.AppendUint32(b, 1)
	b = append(b, 'd')
	for _, v := range []uint32{0, 0, 0, 0, 0, 10} {
		b = le.AppendUint32(b, v)
	}
	b = le.AppendUint64(b, 1<<20*9)
	return append(b, make([]byte, 64)...)
}

// TestOverlongBlobAllocatesNothing: a blob count that matches the
// architecture but runs past the end of a stream whose length is known
// is a *FormatError before the blob is allocated, from a bytes.Reader
// and from an *os.File (read from the start and from an offset).
func TestOverlongBlobAllocatesNothing(t *testing.T) {
	data := hostileBlob()
	if len(data) != 160 {
		t.Fatalf("hostile file is %d bytes, want 160", len(data))
	}
	path := filepath.Join(t.TempDir(), "blob.bflw")
	if err := os.WriteFile(path, append([]byte("skip"), data...), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(data), "os.File": f} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadWithInfo(r, feat())
		runtime.ReadMemStats(&after)
		var fe *FormatError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), "overruns") {
			t.Fatalf("%s: got %v, want a *FormatError for the overlong blob", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: LoadWithInfo allocated %d bytes on a %d-byte file, want < 1 MiB", name, d, len(data))
		}
	}
}

// TestChainOverBoundIsRefused: a complete, well-formed model whose
// chain is just over maxModelBytes — an 8192×8192×256 input under a
// 1×1 conv of stride 1024 and pad 1, 2,148,532,352 bytes of input plane
// — is a *FormatError from Load and an error from Build, with nothing
// allocated for the chain. Run it only where the bound is checked:
// without the check it allocates over 2 GiB.
func TestChainOverBoundIsRefused(t *testing.T) {
	b := NewBuilder("over", 8192, 8192, 256, feat()).Conv("c", 64, 1, 1, 1024, 1).Dense("d", 10)
	if _, err := b.Build(RandomWeights{Seed: 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Build: got %v, want the chain refused", err)
	}
	n, err := b.compile(floatSource{RandomWeights{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = LoadWithInfo(bytes.NewReader(data), feat())
	runtime.ReadMemStats(&after)
	var fe *FormatError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Load: got %v, want a *FormatError for the chain", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("LoadWithInfo allocated %d bytes on a %d-byte file, want < 1 MiB", d, len(data))
	}
	// A dense flattening a plane past the bound is refused as it
	// compiles, before its weights are asked for.
	wide := NewBuilder("wide", 8192, 8192, 512, feat()).Dense("d", 10)
	if _, err := wide.Build(RandomWeights{Seed: 1}); err == nil || !strings.Contains(err.Error(), "flattens") {
		t.Errorf("Build of a dense over 8192x8192x512: got %v, want it refused", err)
	}
}

// shortWriter accepts cap bytes, then fails every write.
type shortWriter struct{ cap int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.cap {
		n := w.cap
		w.cap = 0
		return n, io.ErrShortWrite
	}
	w.cap -= len(p)
	return len(p), nil
}

// TestSaveReportsWriteError: a write that fails anywhere, in the payload
// or the footer, is Save's error, and the count is what reached w.
func TestSaveReportsWriteError(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	size := len(savedBytes(t, net))
	for _, cut := range []int{0, 10, size / 2, size - 16, size - 1} {
		n, err := net.Save(&shortWriter{cap: cut})
		if !errors.Is(err, io.ErrShortWrite) || n != int64(cut) {
			t.Errorf("cut at %d: Save returned %d, %v; want %d and io.ErrShortWrite", cut, n, err, cut)
		}
	}
}
