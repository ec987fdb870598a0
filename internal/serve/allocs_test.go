package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// TestInferHandlerAllocations pins the heap traffic of one TinyVGG JSON
// /infer request through Server.Handler, set up as the benchmark's
// http_tinyvgg_c2 workload serves it: one replica, serial inference.
// The request and recorder are built once and reset per call, so the
// count is the handler's own: JSON decode and encode, admission, the
// per-request context and the inference. It measured 43 when the pin
// was set, 42 once the network re-derived its request context in place
// and 41 once the registry pin stopped returning a release closure; the
// ceiling is the known starting line for lowering it, not a target.
// Under -race every sync.Pool on the request path drops values at
// random, and the count reads 43 to 45, so the pin runs only without
// the race detector.
func TestInferHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop values at random; the count is not the handler's")
	}
	net, err := graph.TinyVGG(sched.Detect(), graph.RandomWeights{Seed: 140})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithConfig(net, Config{Replicas: 1, Exec: exec.Serial()}).Handler()
	data := workload.RandTensor(workload.NewRNG(141), net.InH, net.InW, net.InC).Data
	payload, err := json.Marshal(InferRequest{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/infer", io.NopCloser(body))
	req.Header.Set("Content-Type", "application/json")
	hdr, out := http.Header{}, new(bytes.Buffer)
	rec := httptest.NewRecorder()
	serveOne := func() {
		body.Reset(payload)
		clear(hdr)
		out.Reset()
		*rec = httptest.ResponseRecorder{HeaderMap: hdr, Body: out, Code: http.StatusOK}
		h.ServeHTTP(rec, req)
	}
	serveOne()
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d: %s", rec.Code, out)
	}
	if n := testing.AllocsPerRun(20, serveOne); n > 41 {
		t.Errorf("one /infer request allocates %v times, want ≤ 41", n)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d: %s", rec.Code, out)
	}
}
