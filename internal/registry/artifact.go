package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"

	"bitflow/internal/faultinject"
	"bitflow/internal/graph"
	"bitflow/internal/resilience"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// Artifact is one loaded, decodable model file — the unit a reload
// candidates from. Verify promotes it to "safe to serve": warm-up,
// probe inference, and a clone self-check all pass before any replica
// set is built from Net.
type Artifact struct {
	// Name is the model name stored in the file (informational; the
	// registry key is the manifest/admin name).
	Name string
	// Version labels this artifact in reload statuses. Defaults to the
	// payload checksum in hex when the caller passes "".
	Version string
	// Path is the source file, "" for in-memory artifacts.
	Path string
	// Net is the decoded network — the prototype replicas clone from.
	Net *graph.Network
	// Checksum is the payload CRC64; Checksummed reports whether the
	// file carried (and passed) an integrity footer.
	Checksum    uint64
	Checksummed bool
	// Bytes is the artifact size on disk.
	Bytes int64
	// Probe holds the recorded probe logits after Verify: the reference
	// every replica built from this artifact must reproduce bit-exactly.
	Probe []float32
}

// Load stages for LoadError.Stage.
const (
	StageOpen     = "open"
	StageChecksum = "checksum"
	StageDecode   = "decode"
	StageWarmup   = "warmup"
	StageProbe    = "probe"
)

// LoadError is the typed failure of LoadArtifact / Artifact.Verify:
// which artifact, which stage of the verification ladder, and why.
type LoadError struct {
	Path  string
	Stage string
	Err   error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("registry: loading %s: %s failed: %v", e.Path, e.Stage, e.Err)
}

//bitflow:keep external interface: errors.Is and errors.As unwrap through it
func (e *LoadError) Unwrap() error { return e.Err }

// LoadArtifact opens, checksums, and decodes one model file. It runs
// entirely off the request hot path; every failure is a typed
// *LoadError and leaves whatever is currently serving untouched. It
// does NOT verify inference — chain Artifact.Verify (or let the serving
// layer's swap verification do it).
func LoadArtifact(path, version string, feat sched.Features) (*Artifact, error) {
	if err := faultinject.RegistryLoad.Fire(nil, path, 0); err != nil {
		return nil, &LoadError{Path: path, Stage: StageOpen, Err: err}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, &LoadError{Path: path, Stage: StageOpen, Err: err}
	}
	defer f.Close()

	var (
		net  *graph.Network
		info *graph.LoadInfo
		lerr error
	)
	if perr := resilience.Safe(func() {
		net, info, lerr = graph.LoadWithInfo(f, feat)
	}); perr != nil {
		return nil, &LoadError{Path: path, Stage: StageDecode, Err: perr}
	}
	if lerr != nil {
		stage := StageDecode
		var ce *graph.ChecksumError
		if errors.As(lerr, &ce) {
			stage = StageChecksum
		}
		return nil, &LoadError{Path: path, Stage: stage, Err: lerr}
	}
	if version == "" {
		version = fmt.Sprintf("%016x", info.Checksum)
	}
	return &Artifact{
		Name:        net.Name,
		Version:     version,
		Path:        path,
		Net:         net,
		Checksum:    info.Checksum,
		Checksummed: info.Checksummed,
		Bytes:       info.Bytes,
	}, nil
}

// FromNetwork wraps an already-built network as an artifact — the
// in-process reload path (tests, conformance, embedders that build
// models programmatically). The checksum is left zero; Verify still
// applies in full.
func FromNetwork(version string, net *graph.Network) *Artifact {
	return &Artifact{Name: net.Name, Version: version, Net: net}
}

// probeSeed derives the deterministic probe input stream. Fixed — NOT
// per artifact — so the same model reloaded under a new version label
// produces comparable probe logits, which is what lets a rollback
// assert "the old version still serves bit-exact logits".
const probeSeed = 0xB17F10B5

// ProbeInput returns the deterministic probe tensor for the artifact's
// input geometry.
func (a *Artifact) ProbeInput() *tensor.Tensor {
	return workload.RandTensor(workload.NewRNG(probeSeed), a.Net.InH, a.Net.InW, a.Net.InC)
}

// Verify runs the off-hot-path verification ladder on the decoded
// network:
//
//  1. warm-up: one inference on a zero input must complete without
//     error or panic (a network that cannot infer must never be
//     flipped in);
//  2. probe: one inference on the deterministic probe input must yield
//     finite logits, recorded as a.Probe;
//  3. clone self-check: a fresh Clone must reproduce the probe logits
//     bit-exactly — the replica-construction path is what serving
//     actually uses, so it is what gets verified.
//
// Every failure is a typed *LoadError with the stage that broke.
func (a *Artifact) Verify() error {
	zero := tensor.New(a.Net.InH, a.Net.InW, a.Net.InC)
	var ierr error
	if perr := resilience.Safe(func() {
		_, ierr = a.Net.InferContext(context.Background(), zero)
	}); perr != nil {
		return &LoadError{Path: a.Path, Stage: StageWarmup, Err: perr}
	}
	if ierr != nil {
		return &LoadError{Path: a.Path, Stage: StageWarmup, Err: ierr}
	}

	probe := a.ProbeInput()
	var logits []float32
	if perr := resilience.Safe(func() {
		logits, ierr = a.Net.InferContext(context.Background(), probe)
	}); perr != nil {
		return &LoadError{Path: a.Path, Stage: StageProbe, Err: perr}
	}
	if ierr != nil {
		return &LoadError{Path: a.Path, Stage: StageProbe, Err: ierr}
	}
	for i, v := range logits {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return &LoadError{Path: a.Path, Stage: StageProbe,
				Err: fmt.Errorf("probe logit %d is %v; model emits non-finite outputs", i, v)}
		}
	}
	a.Probe = append([]float32(nil), logits...)

	var cloneLogits []float32
	if perr := resilience.Safe(func() {
		c := a.Net.Clone()
		cloneLogits, ierr = c.InferContext(context.Background(), probe)
	}); perr != nil {
		return &LoadError{Path: a.Path, Stage: StageProbe, Err: perr}
	}
	if ierr != nil {
		return &LoadError{Path: a.Path, Stage: StageProbe, Err: ierr}
	}
	for i := range logits {
		if cloneLogits[i] != logits[i] {
			return &LoadError{Path: a.Path, Stage: StageProbe,
				Err: fmt.Errorf("clone logit %d = %v, prototype %v; replica construction is not bit-exact",
					i, cloneLogits[i], logits[i])}
		}
	}
	return nil
}
