package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"strings"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// Model file format ("BFLW", version 1): the architecture specs plus the
// *packed* weights — the deployment artifact of a stand-alone BNN engine
// (paper §IV: "substantially simplifies its deployment in practical
// applications"). The packed representation is platform-independent:
// every channel vector is WordsFor(C) words on every tier, so a model
// saved on an AVX-512-class machine loads bit-identically on a scalar one
// (only the kernel tier chosen at load time differs).
//
// Layout (all integers little-endian):
//
//	magic "BFLW" | u32 version | str name | u32 inH | u32 inW | u32 inC
//	u32 specCount | specs... | weight blobs for conv/dense specs in order
//	| activation records for conv/dense layers in order
//
//	spec: u8 kind | str name | 6×u32 (k, kh, kw, stride, pad, units)
//	blob: u64 count | that many u64 words (f32 for the float conv)
//	activation: u8 flags (bit0 thresholds, bit1 affine)
//	            [thresholds: u32 K | K×i32 T | K×u8 flip]
//	            [affine: u32 K | K×f32 scale | K×f32 mean | K×f32 shift]
//
// str: u32 length + bytes. Folded activations (batch-norm/bias
// thresholds, classifier affine) are stored post-fold, so BatchNorm
// specs in the architecture become no-ops at load time.
//
// Save and Load are one encoder and one decoder that mirror each other
// over a stream (DESIGN.md §5, "The model codec"). Load decodes each
// weight word once, into the slice its operator keeps, and checks the
// footer after the whole stream has been hashed.

var modelMagic = [4]byte{'B', 'F', 'L', 'W'}

const modelVersion = 1

// maxSaneLen guards length fields when reading untrusted files.
const maxSaneLen = 1 << 30

// Integrity footer ("BFCK", version 1): appended after the payload by
// Save, it carries the CRC64-ECMA checksum of every preceding byte so a
// flipped bit anywhere in the artifact is caught before the model serves
// a single request. Files written before the footer existed still load —
// LoadInfo.Checksummed reports false so operators can flag them.
//
//	footer: magic "BFCK" | u32 footer version | u64 crc64(payload)
var checksumMagic = [4]byte{'B', 'F', 'C', 'K'}

const (
	checksumFooterVersion = 1
	checksumFooterLen     = 16
)

// crcTable is the CRC64-ECMA table shared by Save and Load.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxModelBytes bounds how much Load will read — an artifact claiming to
// be larger than this is rejected rather than buffered.
const maxModelBytes = 1 << 31

// ChecksumError reports a model file whose payload does not match its
// integrity footer — the artifact was corrupted (or truncated and
// re-padded) after Save wrote it.
type ChecksumError struct {
	Want uint64 // checksum stored in the footer
	Got  uint64 // checksum computed over the payload
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("graph: model checksum mismatch: footer says %016x, payload hashes to %016x", e.Want, e.Got)
}

// FormatError reports a model file that could not be decoded: truncated,
// structurally invalid, or claiming implausible sizes. It wraps the
// underlying cause (io.ErrUnexpectedEOF for truncation).
type FormatError struct {
	Err error
}

func (e *FormatError) Error() string { return fmt.Sprintf("graph: invalid model file: %v", e.Err) }

//bitflow:keep external interface: errors.Is and errors.As unwrap through it
func (e *FormatError) Unwrap() error { return e.Err }

// LoadInfo describes the integrity metadata observed while loading.
type LoadInfo struct {
	// Checksum is the CRC64-ECMA of the payload, computed during load
	// regardless of whether the file carried a footer.
	Checksum uint64
	// Checksummed reports whether the file carried an integrity footer
	// (and therefore that Checksum was verified against it).
	Checksummed bool
	// Bytes is the total file size consumed, footer included.
	Bytes int64
}

// hashWriter counts and CRC-hashes the bytes on their way to w.
type hashWriter struct {
	w   io.Writer
	n   int64
	crc uint64
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.n += int64(n)
	hw.crc = crc64.Update(hw.crc, crcTable, p[:n])
	return n, err
}

// encoder writes the format's fields through one bufio.Writer. bufio's
// error is sticky: once a write fails every later one is dropped, and
// Flush reports it.
type encoder struct {
	bw  *bufio.Writer
	buf [8]byte
}

func (e *encoder) u8(v byte)    { e.bw.WriteByte(v) }
func (e *encoder) u32(v uint32) { e.bw.Write(binary.LittleEndian.AppendUint32(e.buf[:0], v)) }
func (e *encoder) u64(v uint64) { e.bw.Write(binary.LittleEndian.AppendUint64(e.buf[:0], v)) }
func (e *encoder) str(s string) { e.u32(uint32(len(s))); e.bw.WriteString(s) }
func (e *encoder) f32s(vs []float32) {
	for _, v := range vs {
		e.u32(math.Float32bits(v))
	}
}

// blob writes a count-prefixed word slice.
func (e *encoder) blob(ws []uint64) {
	e.u64(uint64(len(ws)))
	for _, w := range ws {
		e.u64(w)
	}
}

// activation writes one layer's activation record.
func (e *encoder) activation(th *core.Thresholds, aff *core.Affine) {
	e.u8(bit(th != nil) | bit(aff != nil)<<1)
	if th != nil {
		e.u32(uint32(len(th.T)))
		for _, t := range th.T {
			e.u32(uint32(t))
		}
		for _, f := range th.Flip {
			e.u8(bit(f))
		}
	}
	if aff != nil {
		e.u32(uint32(len(aff.Scale)))
		e.f32s(aff.Scale)
		e.f32s(aff.Mean)
		e.f32s(aff.Shift)
	}
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Save serializes the network's architecture and packed weights,
// followed by a CRC64 integrity footer over the payload. The returned
// count is the number of bytes written, footer included.
func (n *Network) Save(w io.Writer) (int64, error) {
	hw := &hashWriter{w: w}
	e := &encoder{bw: bufio.NewWriter(hw)}
	e.bw.Write(modelMagic[:])
	e.u32(modelVersion)
	e.str(n.Name)
	for _, v := range []int{n.InH, n.InW, n.InC, len(n.arch)} {
		e.u32(uint32(v))
	}
	for _, sp := range n.arch {
		e.u8(byte(sp.kind))
		e.str(sp.name)
		for _, v := range []int{sp.k, sp.kh, sp.kw, sp.stride, sp.pad, sp.units} {
			e.u32(uint32(v))
		}
	}
	// Weight blobs, in node order (weighted nodes only). Binary layers
	// store packed words; the mixed-precision float conv stores float32s.
	// Pools are weightless, so the artifact is byte-identical however
	// the chain fuses them.
	for _, nd := range n.nodes {
		switch {
		case nd.conv != nil:
			e.blob(nd.conv.Filter().Words)
		case nd.dense != nil:
			e.blob(nd.dense.Weights().Words)
		case nd.fconv != nil:
			data := nd.fconv.Filter().Data
			e.u64(uint64(len(data)))
			e.f32s(data)
		}
	}
	// Activation records, in the same order.
	for _, nd := range n.nodes {
		switch {
		case nd.conv != nil:
			e.activation(nd.conv.Activation(), nil)
		case nd.dense != nil:
			e.activation(nd.dense.Activation(), nd.dense.OutAffine())
		case nd.fconv != nil:
			e.activation(nil, nd.fconv.OutAffine())
		}
	}
	// Once the payload is flushed, hw.crc is its checksum; the footer
	// follows it. Its own bytes pass through the hash too, after the
	// value was taken. The one error check is the last Flush: a failed
	// first Flush leaves the writer failed.
	e.bw.Flush()
	e.bw.Write(checksumMagic[:])
	e.u32(checksumFooterVersion)
	e.u64(hw.crc)
	err := e.bw.Flush()
	return hw.n, err
}

// decoder reads the format's fields from a stream, hashing each payload
// byte it consumes. Like the encoder's, its error is sticky: after the
// first failure every read returns zero, so a decode checks d.err
// before it acts on a decoded size and not after every field.
type decoder struct {
	br   *bufio.Reader
	crc  uint64 // CRC64 of the payload consumed so far
	n    int64  // payload bytes consumed so far
	err  error  // the decode's first failure
	rerr error  // the stream's read error, which ends the payload
	zero [8]byte
}

// chunk is the most payload bytes one read hands out: the reader's
// buffer less the held-back footer.
func (d *decoder) chunk() int { return d.br.Size() - checksumFooterLen }

// next consumes, hashes and returns up to k ≤ d.chunk() payload bytes,
// valid until the next read, fewer only where the payload ends. The
// payload ends where the stream does, less its last 16 bytes if they
// parse as a footer: those are held back and never handed out.
func (d *decoder) next(k int) []byte {
	b, err := d.br.Peek(k + checksumFooterLen)
	switch {
	case err == nil:
		b = b[:k]
	case err != io.EOF:
		d.rerr, b = err, nil
	default: // b is the rest of the stream
		if _, ok := parseChecksumFooter(b); ok {
			b = b[:len(b)-checksumFooterLen]
		}
		b = b[:min(k, len(b))]
	}
	d.crc = crc64.Update(d.crc, crcTable, b)
	d.n += int64(len(b))
	d.br.Discard(len(b))
	return b
}

// take is next for a decode: exactly k bytes. A payload that ends first
// fails d with io.ErrUnexpectedEOF. Once d has failed, take reads
// nothing and returns min(k, 8) zero bytes, so every field reads zero.
func (d *decoder) take(k int) []byte {
	if d.err == nil {
		if b := d.next(k); len(b) == k {
			return b
		}
		d.err = cmp.Or(d.rerr, io.ErrUnexpectedEOF)
	}
	return d.zero[:min(k, 8)]
}

func (d *decoder) u8() byte    { return d.take(1)[0] }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

// str reads a length-prefixed string. It grows with the bytes actually
// read, so a hostile length field costs no more memory than the stream
// holds.
func (d *decoder) str() string {
	var sb strings.Builder
	for n := int(d.u32()); sb.Len() < n && d.err == nil; {
		sb.Write(d.take(min(n-sb.Len(), d.chunk())))
	}
	return sb.String()
}

func (d *decoder) f32s(dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(d.u32())
	}
}

// words fills dst from the reader's buffer, a chunk at a time.
func (d *decoder) words(dst []uint64) {
	for len(dst) > 0 && d.err == nil {
		b := d.take(min(len(dst), d.chunk()/8) * 8)
		for i := range len(b) / 8 {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[len(b)/8:]
	}
}

// count reads a weight blob's stored length and checks it against want,
// the length the architecture gives, before anything is allocated for
// it; size is one value's byte width.
func (d *decoder) count(want, size int) bool {
	switch got := d.u64(); {
	case d.err != nil:
	case got != uint64(want):
		d.err = fmt.Errorf("weight blob has %d values, architecture wants %d", got, want)
	case want > maxSaneLen/size:
		d.err = fmt.Errorf("weight blob of %d values implausible", want)
	}
	return d.err == nil
}

// The decoder is the opSource the loaded network compiles against: each
// weighted node's blob is decoded straight into the slice the operator
// keeps.

func (d *decoder) conv(name string, shape sched.ConvShape, tier kernels.Width) (*core.Conv, error) {
	words := bitpack.WordsFor(shape.InC)
	if !d.count(shape.K*shape.KH*shape.KW*words, 8) {
		return nil, d.err
	}
	pf := bitpack.NewPackedFilter(shape.K, shape.KH, shape.KW, shape.InC, words)
	if d.words(pf.Words); d.err != nil {
		return nil, d.err
	}
	return core.NewConvPacked(shape, tier, pf)
}

func (d *decoder) dense(name string, shape sched.FCShape, tier kernels.Width) (*core.Dense, error) {
	words := bitpack.WordsFor(shape.N)
	if !d.count(shape.K*words, 8) {
		return nil, d.err
	}
	pm := bitpack.NewPackedMatrix(shape.K, shape.N, words)
	if d.words(pm.Words); d.err != nil {
		return nil, d.err
	}
	return core.NewDensePacked(shape, tier, pm)
}

func (d *decoder) floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error) {
	want := shape.K * shape.KH * shape.KW * shape.InC
	if !d.count(want, 4) {
		return nil, d.err
	}
	data := make([]float32, want)
	if d.f32s(data); d.err != nil {
		return nil, d.err
	}
	return core.NewFloatConv(shape, tensor.FilterFromSlice(shape.K, shape.KH, shape.KW, shape.InC, data))
}

func (d *decoder) bias(name string, k int, dense bool) ([]float32, error) { return nil, nil }

// batchNorm reports "already baked": stored thresholds include every
// fold that was applied at original build time.
func (d *decoder) batchNorm(name string, channels int) (*BNParams, error) { return nil, nil }

// activations restores the activation records onto the freshly
// compiled nodes.
func (d *decoder) activations(n *Network) error {
	for _, nd := range n.nodes {
		var err error
		switch {
		case nd.conv != nil:
			err = d.activation(nd.conv.Shape.K, nd.conv.SetThresholds, nil)
		case nd.dense != nil:
			err = d.activation(nd.dense.Shape.K, nd.dense.SetThresholds, nd.dense.SetAffine)
		case nd.fconv != nil:
			err = d.activation(nd.fconv.Shape.K, nil, nd.fconv.SetAffine)
		}
		if err != nil {
			return fmt.Errorf("graph: activation record for %s: %w", nd.sp.name, err)
		}
	}
	return nil
}

// activation reads one layer's record and hands it to the layer's
// setters; a nil setter is a record the layer cannot carry. A record's
// size must be the layer's k channels before anything is allocated for
// it.
func (d *decoder) activation(k int, setT func(*core.Thresholds) error, setA func(*core.Affine) error) error {
	flags := d.u8()
	if flags&1 != 0 {
		if got := d.u32(); setT == nil || (d.err == nil && got != uint32(k)) {
			return fmt.Errorf("unexpected threshold record of %d channels", got)
		}
		th := &core.Thresholds{T: make([]int32, k), Flip: make([]bool, k)}
		for i := range th.T {
			th.T[i] = int32(d.u32())
		}
		for i := range th.Flip {
			th.Flip[i] = d.u8() != 0
		}
		d.err = cmp.Or(d.err, setT(th))
	}
	if flags&2 != 0 {
		if got := d.u32(); setA == nil || (d.err == nil && got != uint32(k)) {
			return fmt.Errorf("unexpected affine record of %d channels", got)
		}
		aff := &core.Affine{Scale: make([]float32, k), Mean: make([]float32, k), Shift: make([]float32, k)}
		d.f32s(aff.Scale)
		d.f32s(aff.Mean)
		d.f32s(aff.Shift)
		d.err = cmp.Or(d.err, setA(aff))
	}
	return d.err
}

// Load deserializes a model saved with Save and compiles it for the
// given features (the kernel tiers are re-selected for the loading
// machine; the packed weights are tier-independent).
func Load(r io.Reader, feat sched.Features) (*Network, error) {
	n, _, err := LoadWithInfo(r, feat)
	return n, err
}

// LoadWithInfo is Load plus the integrity metadata: the payload CRC64
// and whether the file carried (and passed) a checksum footer. Corrupt
// or truncated files return *ChecksumError / *FormatError — never a
// panic — so callers can roll back to a previous artifact with a
// structured reason. Files written before the footer existed load with
// Checksummed=false.
func LoadWithInfo(r io.Reader, feat sched.Features) (*Network, *LoadInfo, error) {
	d := &decoder{br: bufio.NewReaderSize(io.LimitReader(r, maxModelBytes+1), 64<<10)}
	n, err := d.model(feat)
	// Hash what the decode left, so the footer is checked against the
	// whole payload however far the decode got. What is left after that
	// is a footer or nothing.
	decoded := d.n
	for len(d.next(d.chunk())) > 0 {
	}
	tail, _ := d.br.Peek(checksumFooterLen)
	stored, checksummed := parseChecksumFooter(tail)
	info := &LoadInfo{Checksum: d.crc, Checksummed: checksummed, Bytes: d.n + int64(len(tail))}
	switch {
	case d.rerr != nil:
		return nil, nil, &FormatError{Err: d.rerr}
	case info.Bytes > maxModelBytes:
		return nil, nil, &FormatError{Err: fmt.Errorf("model exceeds %d bytes", int64(maxModelBytes))}
	case checksummed && stored != d.crc:
		return nil, nil, &ChecksumError{Want: stored, Got: d.crc}
	case err != nil:
		return nil, nil, &FormatError{Err: err}
	case d.n > decoded:
		return nil, nil, &FormatError{Err: fmt.Errorf("%d trailing bytes after model payload", d.n-decoded)}
	}
	// Only a model that decoded whole and passed its footer gets its
	// activation buffers.
	if err := n.lay(); err != nil {
		return nil, nil, &FormatError{Err: err}
	}
	return n, info, nil
}

// parseChecksumFooter reports whether data ends in a well-formed
// integrity footer, returning the stored checksum when it does.
func parseChecksumFooter(data []byte) (uint64, bool) {
	f := data[max(len(data)-checksumFooterLen, 0):]
	if len(f) < checksumFooterLen || [4]byte(f) != checksumMagic || binary.LittleEndian.Uint32(f[4:]) != checksumFooterVersion {
		return 0, false
	}
	return binary.LittleEndian.Uint64(f[8:]), true
}

// Decode-time sanity bounds for untrusted headers: generous for any real
// architecture, small enough that a hostile header cannot make the
// loader allocate unbounded memory before hitting a length check.
const (
	maxSaneSpatial = 1 << 13 // per input dimension
	maxSaneChans   = 1 << 20 // channels / filters / units
	maxSaneKernel  = 1 << 10 // kernel extent, stride, pad
)

// model decodes one payload: the header and the specs, then the weights
// and activation records of the nodes they compile to. It lays no
// chain.
func (d *decoder) model(feat sched.Features) (*Network, error) {
	if b := d.take(4); d.err == nil && [4]byte(b) != modelMagic {
		return nil, fmt.Errorf("graph: bad magic %q, not a BitFlow model", b)
	}
	if version := d.u32(); d.err == nil && version != modelVersion {
		return nil, fmt.Errorf("graph: unsupported model version %d", version)
	}
	name := d.str()
	var dims [4]uint32
	for i := range dims {
		dims[i] = d.u32()
	}
	if d.err != nil {
		return nil, fmt.Errorf("graph: reading model header: %w", d.err)
	}
	if dims[0] < 1 || dims[0] > maxSaneSpatial || dims[1] < 1 || dims[1] > maxSaneSpatial ||
		dims[2] < 1 || dims[2] > maxSaneChans || dims[3] > maxSaneLen/64 {
		return nil, fmt.Errorf("graph: input dims %dx%dx%d with %d specs implausible", dims[0], dims[1], dims[2], dims[3])
	}
	b := NewBuilder(name, int(dims[0]), int(dims[1]), int(dims[2]), feat)
	for i := 0; i < int(dims[3]); i++ {
		kind := specKind(d.u8())
		sname := d.str()
		var p [6]uint32
		for j := range p {
			p[j] = d.u32()
		}
		switch {
		case d.err != nil:
			return nil, fmt.Errorf("graph: reading spec %d: %w", i, d.err)
		case kind > specFloatConv: // the last kind
			return nil, fmt.Errorf("graph: unknown spec kind %d", kind)
		case p[0] > maxSaneChans || p[5] > maxSaneChans ||
			p[1] > maxSaneKernel || p[2] > maxSaneKernel || p[3] > maxSaneKernel || p[4] > maxSaneKernel:
			return nil, fmt.Errorf("graph: spec %d parameters %v implausible", i, p)
		}
		b.specs = append(b.specs, spec{kind: kind, name: sname, k: int(p[0]), kh: int(p[1]), kw: int(p[2]),
			stride: int(p[3]), pad: int(p[4]), units: int(p[5])})
	}
	n, err := b.compile(d)
	if err != nil {
		return nil, err
	}
	if err := d.activations(n); err != nil {
		return nil, err
	}
	return n, nil
}
