package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// Model file format ("BFLW", version 1): the architecture specs plus the
// *packed* weights — the deployment artifact of a stand-alone BNN engine
// (paper §IV: "substantially simplifies its deployment in practical
// applications"). The packed representation is platform-independent:
// sched.Select always yields WordsFor(C) words per channel vector, so a
// model saved on an AVX-512-class machine loads bit-identically on a
// scalar one (only the kernel tier chosen at load time differs).
//
// Layout (all integers little-endian):
//
//	magic "BFLW" | u32 version | str name | u32 inH | u32 inW | u32 inC
//	u32 specCount | specs... | weight blobs for conv/dense specs in order
//	| activation records for conv/dense layers in order
//
//	spec: u8 kind | str name | 6×u32 (k, kh, kw, stride, pad, units)
//	blob: u64 wordCount | that many u64
//	activation: u8 flags (bit0 thresholds, bit1 affine)
//	            [thresholds: u32 K | K×i32 T | K×u8 flip]
//	            [affine: u32 K | K×f32 scale | K×f32 mean | K×f32 shift]
//
// str: u32 length + bytes. Folded activations (batch-norm/bias
// thresholds, classifier affine) are stored post-fold, so BatchNorm
// specs in the architecture become no-ops at load time.

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

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// crcWriter tees payload bytes into the running CRC64 on their way out,
// so Save can stamp the footer without buffering the whole artifact.
type crcWriter struct {
	w   io.Writer
	crc uint64
}

func (hw *crcWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.crc = crc64.Update(hw.crc, crcTable, p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }

func writeStr(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readU64(r io.Reader) (uint64, error) {
	var v uint64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readStr(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxSaneLen {
		return "", fmt.Errorf("graph: string length %d implausible", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Save serializes the network's architecture and packed weights,
// followed by a CRC64 integrity footer over the payload. The returned
// count is the number of bytes written, footer included.
func (n *Network) Save(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	hw := &crcWriter{w: cw}
	bw := bufio.NewWriter(hw)
	if _, err := bw.Write(modelMagic[:]); err != nil {
		return cw.n, err
	}
	if err := writeU32(bw, modelVersion); err != nil {
		return cw.n, err
	}
	if err := writeStr(bw, n.Name); err != nil {
		return cw.n, err
	}
	for _, v := range []uint32{uint32(n.InH), uint32(n.InW), uint32(n.InC), uint32(len(n.arch))} {
		if err := writeU32(bw, v); err != nil {
			return cw.n, err
		}
	}
	for _, sp := range n.arch {
		if err := bw.WriteByte(byte(sp.kind)); err != nil {
			return cw.n, err
		}
		if err := writeStr(bw, sp.name); err != nil {
			return cw.n, err
		}
		for _, v := range []uint32{uint32(sp.k), uint32(sp.kh), uint32(sp.kw), uint32(sp.stride), uint32(sp.pad), uint32(sp.units)} {
			if err := writeU32(bw, v); err != nil {
				return cw.n, err
			}
		}
	}
	// Weight blobs, in layer order (weighted layers only). Binary layers
	// store packed words; the mixed-precision float conv stores float32s.
	// A fused conv+pool node writes its conv's records: the pool is
	// weightless, so the artifact is byte-identical fused or not.
	for _, l := range n.layers {
		switch v := l.(type) {
		case *convLayer:
			if err := writeWordBlob(bw, v.op.Filter().Words); err != nil {
				return cw.n, err
			}
		case *denseLayer:
			if err := writeWordBlob(bw, v.op.Weights().Words); err != nil {
				return cw.n, err
			}
		case *floatConvLayer:
			data := v.op.Filter().Data
			if err := writeU64(bw, uint64(len(data))); err != nil {
				return cw.n, err
			}
			if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
				return cw.n, err
			}
		}
	}
	// Activation records, in the same layer order.
	for _, l := range n.layers {
		var th *core.Thresholds
		var aff *core.Affine
		switch v := l.(type) {
		case *convLayer:
			th = v.op.Activation()
		case *denseLayer:
			th = v.op.Activation()
			aff = v.op.OutAffine()
		case *floatConvLayer:
			aff = v.op.OutAffine()
		default:
			continue
		}
		var flags byte
		if th != nil {
			flags |= 1
		}
		if aff != nil {
			flags |= 2
		}
		if err := bw.WriteByte(flags); err != nil {
			return cw.n, err
		}
		if th != nil {
			if err := writeU32(bw, uint32(len(th.T))); err != nil {
				return cw.n, err
			}
			if err := binary.Write(bw, binary.LittleEndian, th.T); err != nil {
				return cw.n, err
			}
			for _, f := range th.Flip {
				b := byte(0)
				if f {
					b = 1
				}
				if err := bw.WriteByte(b); err != nil {
					return cw.n, err
				}
			}
		}
		if aff != nil {
			if err := writeU32(bw, uint32(len(aff.Scale))); err != nil {
				return cw.n, err
			}
			for _, arr := range [][]float32{aff.Scale, aff.Mean, aff.Shift} {
				if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
					return cw.n, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// Footer goes straight to the counting writer: the stored checksum
	// covers the payload only, never itself.
	if _, err := cw.Write(checksumMagic[:]); err != nil {
		return cw.n, err
	}
	if err := writeU32(cw, checksumFooterVersion); err != nil {
		return cw.n, err
	}
	if err := writeU64(cw, hw.crc); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writeWordBlob writes a length-prefixed word slice.
func writeWordBlob(w io.Writer, words []uint64) error {
	if err := writeU64(w, uint64(len(words))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, words)
}

// readActivations restores the per-layer activation records onto the
// freshly compiled network.
func readActivations(r io.Reader, n *Network) error {
	for _, l := range n.layers {
		switch l.(type) {
		case *convLayer, *denseLayer, *floatConvLayer:
		default:
			continue
		}
		var flags [1]byte
		if _, err := io.ReadFull(r, flags[:]); err != nil {
			return fmt.Errorf("graph: reading activation record for %s: %w", l.name(), err)
		}
		var th *core.Thresholds
		if flags[0]&1 != 0 {
			k, err := readU32(r)
			if err != nil {
				return err
			}
			if k > maxSaneLen/8 {
				return fmt.Errorf("graph: activation size %d implausible", k)
			}
			th = &core.Thresholds{T: make([]int32, k), Flip: make([]bool, k)}
			if err := binary.Read(r, binary.LittleEndian, th.T); err != nil {
				return err
			}
			flip := make([]byte, k)
			if _, err := io.ReadFull(r, flip); err != nil {
				return err
			}
			for i, b := range flip {
				th.Flip[i] = b != 0
			}
		}
		var aff *core.Affine
		if flags[0]&2 != 0 {
			k, err := readU32(r)
			if err != nil {
				return err
			}
			if k > maxSaneLen/12 {
				return fmt.Errorf("graph: affine size %d implausible", k)
			}
			aff = &core.Affine{Scale: make([]float32, k), Mean: make([]float32, k), Shift: make([]float32, k)}
			for _, arr := range [][]float32{aff.Scale, aff.Mean, aff.Shift} {
				if err := binary.Read(r, binary.LittleEndian, arr); err != nil {
					return err
				}
			}
		}
		switch v := l.(type) {
		case *convLayer:
			if aff != nil {
				return fmt.Errorf("graph: conv %s cannot carry an affine record", l.name())
			}
			if th != nil {
				if err := v.op.SetThresholds(th); err != nil {
					return fmt.Errorf("graph: activation for %s: %w", l.name(), err)
				}
			}
		case *floatConvLayer:
			if th != nil {
				return fmt.Errorf("graph: float conv %s cannot carry a threshold record", l.name())
			}
			if aff != nil {
				if err := v.op.SetAffine(aff); err != nil {
					return fmt.Errorf("graph: activation for %s: %w", l.name(), err)
				}
			}
		case *denseLayer:
			if th != nil {
				if err := v.op.SetThresholds(th); err != nil {
					return fmt.Errorf("graph: activation for %s: %w", l.name(), err)
				}
			}
			if aff != nil {
				if err := v.op.SetAffine(aff); err != nil {
					return fmt.Errorf("graph: activation for %s: %w", l.name(), err)
				}
			}
		}
	}
	return nil
}

// packedSource rebuilds operators from the stored weight blobs, consumed
// in layer order.
type packedSource struct {
	r io.Reader
}

func (ps *packedSource) blob(want int) ([]uint64, error) {
	count, err := readU64(ps.r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading weight blob: %w", err)
	}
	if count != uint64(want) {
		return nil, fmt.Errorf("graph: weight blob has %d words, architecture wants %d", count, want)
	}
	if want < 0 || want > maxSaneLen/8 {
		return nil, fmt.Errorf("graph: weight blob of %d words implausible", want)
	}
	words := make([]uint64, want)
	if err := binary.Read(ps.r, binary.LittleEndian, words); err != nil {
		return nil, fmt.Errorf("graph: reading weight blob: %w", err)
	}
	return words, nil
}

func (ps *packedSource) conv(name string, shape sched.ConvShape, plan sched.Plan) (*core.Conv, error) {
	words, err := ps.blob(shape.K * shape.KH * shape.KW * plan.Words)
	if err != nil {
		return nil, err
	}
	pf := bitpack.NewPackedFilter(shape.K, shape.KH, shape.KW, shape.InC, plan.Words)
	copy(pf.Words, words)
	return core.NewConvPacked(shape, plan, pf)
}

func (ps *packedSource) dense(name string, shape sched.FCShape, plan sched.Plan) (*core.Dense, error) {
	words, err := ps.blob(shape.K * plan.Words)
	if err != nil {
		return nil, err
	}
	pm := bitpack.NewPackedMatrix(shape.K, shape.N, plan.Words)
	copy(pm.Words, words)
	return core.NewDensePacked(shape, plan, pm)
}

func (ps *packedSource) floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error) {
	count, err := readU64(ps.r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading float weight blob: %w", err)
	}
	want := shape.K * shape.KH * shape.KW * shape.InC
	if count != uint64(want) {
		return nil, fmt.Errorf("graph: float weight blob has %d values, architecture wants %d", count, want)
	}
	if want < 0 || want > maxSaneLen/4 {
		return nil, fmt.Errorf("graph: float weight blob of %d values implausible", want)
	}
	data := make([]float32, want)
	if err := binary.Read(ps.r, binary.LittleEndian, data); err != nil {
		return nil, fmt.Errorf("graph: reading float weight blob: %w", err)
	}
	return core.NewFloatConv(shape, tensor.FilterFromSlice(shape.K, shape.KH, shape.KW, shape.InC, data))
}

func (ps *packedSource) convBias(name string, k int) ([]float32, error)  { return nil, nil }
func (ps *packedSource) denseBias(name string, k int) ([]float32, error) { return nil, nil }

// batchNorm reports "already baked": stored thresholds include every
// fold that was applied at original build time.
func (ps *packedSource) batchNorm(name string, channels int) (*BNParams, error) { return nil, nil }

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
	data, err := io.ReadAll(io.LimitReader(r, maxModelBytes+1))
	if err != nil {
		return nil, nil, &FormatError{Err: err}
	}
	if len(data) > maxModelBytes {
		return nil, nil, &FormatError{Err: fmt.Errorf("model exceeds %d bytes", int64(maxModelBytes))}
	}
	info := &LoadInfo{Bytes: int64(len(data))}
	payload := data
	if stored, ok := parseChecksumFooter(data); ok {
		payload = data[:len(data)-checksumFooterLen]
		info.Checksummed = true
		info.Checksum = crc64.Checksum(payload, crcTable)
		if info.Checksum != stored {
			return nil, nil, &ChecksumError{Want: stored, Got: info.Checksum}
		}
	} else {
		info.Checksum = crc64.Checksum(payload, crcTable)
	}
	br := bytes.NewReader(payload)
	n, err := decodeModel(br, feat)
	if err != nil {
		var fe *FormatError
		if errors.As(err, &fe) {
			return nil, nil, err
		}
		return nil, nil, &FormatError{Err: err}
	}
	if br.Len() != 0 {
		return nil, nil, &FormatError{Err: fmt.Errorf("%d trailing bytes after model payload", br.Len())}
	}
	return n, info, nil
}

// parseChecksumFooter reports whether data ends in a well-formed
// integrity footer, returning the stored checksum when it does.
func parseChecksumFooter(data []byte) (uint64, bool) {
	if len(data) < checksumFooterLen {
		return 0, false
	}
	f := data[len(data)-checksumFooterLen:]
	if !bytes.Equal(f[:4], checksumMagic[:]) {
		return 0, false
	}
	if binary.LittleEndian.Uint32(f[4:8]) != checksumFooterVersion {
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

// decodeModel parses one serialized payload.
func decodeModel(br *bytes.Reader, feat sched.Features) (*Network, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading model header: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("graph: bad magic %q, not a BitFlow model", magic[:])
	}
	version, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if version != modelVersion {
		return nil, fmt.Errorf("graph: unsupported model version %d", version)
	}
	name, err := readStr(br)
	if err != nil {
		return nil, err
	}
	var dims [4]uint32
	for i := range dims {
		if dims[i], err = readU32(br); err != nil {
			return nil, err
		}
	}
	if dims[0] < 1 || dims[0] > maxSaneSpatial || dims[1] < 1 || dims[1] > maxSaneSpatial ||
		dims[2] < 1 || dims[2] > maxSaneChans {
		return nil, fmt.Errorf("graph: input dims %dx%dx%d implausible", dims[0], dims[1], dims[2])
	}
	specCount := int(dims[3])
	if specCount > maxSaneLen/64 {
		return nil, fmt.Errorf("graph: spec count %d implausible", specCount)
	}
	b := NewBuilder(name, int(dims[0]), int(dims[1]), int(dims[2]), feat)
	for i := 0; i < specCount; i++ {
		kindB, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("graph: reading spec %d: %w", i, err)
		}
		sname, err := readStr(br)
		if err != nil {
			return nil, fmt.Errorf("graph: reading spec %d: %w", i, err)
		}
		var p [6]uint32
		for j := range p {
			if p[j], err = readU32(br); err != nil {
				return nil, fmt.Errorf("graph: reading spec %d: %w", i, err)
			}
		}
		if p[0] > maxSaneChans || p[5] > maxSaneChans ||
			p[1] > maxSaneKernel || p[2] > maxSaneKernel || p[3] > maxSaneKernel || p[4] > maxSaneKernel {
			return nil, fmt.Errorf("graph: spec %d parameters %v implausible", i, p)
		}
		switch specKind(kindB) {
		case specConv, specFloatConv, specPool:
			// A convolving/pooling spec needs a positive window and stride
			// or the output geometry below divides by zero.
			if p[1] < 1 || p[2] < 1 || p[3] < 1 {
				return nil, fmt.Errorf("graph: spec %d window %dx%d stride %d invalid", i, p[1], p[2], p[3])
			}
		}
		switch specKind(kindB) {
		case specConv:
			b.Conv(sname, int(p[0]), int(p[1]), int(p[2]), int(p[3]), int(p[4]))
		case specPool:
			b.Pool(sname, int(p[1]), int(p[2]), int(p[3]))
		case specFlatten:
			b.Flatten()
		case specDense:
			b.Dense(sname, int(p[5]))
		case specBatchNorm:
			b.BatchNorm(sname)
		case specFloatConv:
			b.FloatConv(sname, int(p[0]), int(p[1]), int(p[2]), int(p[3]), int(p[4]))
		default:
			return nil, fmt.Errorf("graph: unknown spec kind %d", kindB)
		}
	}
	n, err := b.buildFrom(&packedSource{r: br})
	if err != nil {
		return nil, err
	}
	if err := readActivations(br, n); err != nil {
		return nil, err
	}
	return n, nil
}
