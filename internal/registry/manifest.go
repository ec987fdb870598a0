package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Manifest is the operator-facing description of what to serve: one
// entry per model. cmd/bitflow-serve loads it at startup (-models) and
// re-reads it on SIGHUP; entries whose path or version changed are
// hot-reloaded through the swap protocol.
type Manifest struct {
	Models []ManifestEntry `json:"models"`
}

// ManifestEntry configures one model: where its artifact lives and the
// QoS envelope it serves under. Zero values defer to the serving
// layer's defaults.
type ManifestEntry struct {
	// Name routes /v1/models/{name}/infer. Required, unique.
	Name string `json:"name"`
	// Path is the packed artifact on disk. Required.
	Path string `json:"path"`
	// Version labels the artifact; "" derives it from the payload
	// checksum, so a changed file is a changed version automatically.
	Version string `json:"version,omitempty"`

	// Replicas, MaxQueue, RequestTimeout mirror serve.Config.
	Replicas       int      `json:"replicas,omitempty"`
	MaxQueue       int      `json:"max_queue,omitempty"`
	RequestTimeout Duration `json:"request_timeout,omitempty"`

	// Default marks the model the legacy single-model endpoints
	// (/infer, /healthz model section) route to. At most one entry may
	// set it; with none set, the first entry is the default.
	Default bool `json:"default,omitempty"`
}

// Duration is a time.Duration that unmarshals from JSON strings like
// "250ms" or "30s" (and bare nanosecond numbers, for completeness).
type Duration time.Duration

func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case string:
		dur, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", t, err)
		}
		*d = Duration(dur)
	case float64:
		*d = Duration(time.Duration(t))
	default:
		return fmt.Errorf("invalid duration %v (want \"30s\"-style string)", v)
	}
	return nil
}

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// ParseManifest decodes and validates a manifest. Unknown fields are
// rejected — a typo in an ops file must fail loudly, not silently
// serve defaults.
func ParseManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	defer f.Close()
	return ParseManifest(f)
}

func (m *Manifest) validate() error {
	if len(m.Models) == 0 {
		return fmt.Errorf("manifest: no models")
	}
	seen := map[string]bool{}
	defaults := 0
	for i, e := range m.Models {
		if e.Name == "" {
			return fmt.Errorf("manifest: models[%d]: name is required", i)
		}
		if !ValidName(e.Name) {
			return fmt.Errorf("manifest: models[%d]: name %q must be URL-safe ([a-zA-Z0-9._-])", i, e.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("manifest: duplicate model name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Path == "" {
			return fmt.Errorf("manifest: model %q: path is required", e.Name)
		}
		if e.Replicas < 0 || e.MaxQueue < 0 {
			return fmt.Errorf("manifest: model %q: negative capacity", e.Name)
		}
		if e.RequestTimeout < 0 {
			return fmt.Errorf("manifest: model %q: negative duration", e.Name)
		}
		if e.Default {
			defaults++
		}
	}
	if defaults > 1 {
		return fmt.Errorf("manifest: multiple models marked default")
	}
	return nil
}

// ValidName reports whether a model name can sit inside a URL path
// segment without escaping ([a-zA-Z0-9._-], non-empty).
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
