package registry

import (
	"strings"
	"testing"
	"time"
)

// DefaultModel returns the entry the legacy endpoints route to.
func (m *Manifest) DefaultModel() ManifestEntry {
	for _, e := range m.Models {
		if e.Default {
			return e
		}
	}
	return m.Models[0]
}

func TestParseManifest(t *testing.T) {
	m, err := ParseManifest(strings.NewReader(`{
		"models": [
			{"name": "vgg", "path": "/models/vgg.bflw", "version": "v3",
			 "replicas": 4, "max_queue": 32, "request_timeout": "2s"},
			{"name": "tiny", "path": "/models/tiny.bflw", "default": true}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Models) != 2 {
		t.Fatalf("models %v", m.Models)
	}
	vgg := m.Models[0]
	if vgg.Name != "vgg" || vgg.Version != "v3" || vgg.Replicas != 4 || vgg.MaxQueue != 32 {
		t.Errorf("entry %+v", vgg)
	}
	if time.Duration(vgg.RequestTimeout) != 2*time.Second {
		t.Errorf("request_timeout %v", vgg.RequestTimeout)
	}
	if got := m.DefaultModel().Name; got != "tiny" {
		t.Errorf("default %q", got)
	}
}

func TestParseManifestDefaultsToFirstModel(t *testing.T) {
	m, err := ParseManifest(strings.NewReader(
		`{"models": [{"name": "a", "path": "/a"}, {"name": "b", "path": "/b"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.DefaultModel().Name; got != "a" {
		t.Errorf("default %q, want first entry", got)
	}
}

func TestParseManifestRejections(t *testing.T) {
	cases := map[string]string{
		"empty":         `{"models": []}`,
		"no name":       `{"models": [{"path": "/a"}]}`,
		"no path":       `{"models": [{"name": "a"}]}`,
		"bad name":      `{"models": [{"name": "a/b", "path": "/a"}]}`,
		"duplicate":     `{"models": [{"name": "a", "path": "/a"}, {"name": "a", "path": "/b"}]}`,
		"two defaults":  `{"models": [{"name": "a", "path": "/a", "default": true}, {"name": "b", "path": "/b", "default": true}]}`,
		"unknown field": `{"models": [{"name": "a", "path": "/a", "replics": 3}]}`,
		"bad duration":  `{"models": [{"name": "a", "path": "/a", "request_timeout": "fast"}]}`,
		"negative":      `{"models": [{"name": "a", "path": "/a", "replicas": -1}]}`,
		"not json":      `models: [a]`,
	}
	for name, body := range cases {
		if _, err := ParseManifest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	// The request coalescer's three keys are gone: an ops file that still
	// asks for it must fail loudly, not silently serve without it.
	for _, key := range []string{`"batch": true`, `"batch_window": "2ms"`, `"max_batch": 8`} {
		body := `{"models": [{"name": "a", "path": "/a", ` + key + `}]}`
		if _, err := ParseManifest(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("removed key %s: err = %v, want an unknown-field rejection", key, err)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := Duration(1500 * time.Millisecond)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip %v -> %s -> %v", d, b, back)
	}
}
