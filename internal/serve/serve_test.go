package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

func testNetwork(t *testing.T) *graph.Network {
	t.Helper()
	net, err := graph.NewBuilder("srv", 8, 8, 64, sched.Detect()).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Dense("d1", 4).
		Build(graph.RandomWeights{Seed: 130})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNewMultiRejectsDuplicateNames: two specs may not share a model
// name, or routing by name would be ambiguous.
func TestNewMultiRejectsDuplicateNames(t *testing.T) {
	net := testNetwork(t)
	_, err := NewMulti([]ModelSpec{{Name: "m", Net: net}, {Name: "m", Net: net}})
	if err == nil || !strings.Contains(err.Error(), `model "m" already registered`) {
		t.Fatalf("duplicate names: err = %v, want already registered", err)
	}
}

func postInfer(t *testing.T, ts *httptest.Server, data []float32) (*http.Response, InferResponse) {
	t.Helper()
	body, _ := json.Marshal(InferRequest{Data: data})
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(NewWithConfig(testNetwork(t), Config{Replicas: 1}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestModelMetadata(t *testing.T) {
	ts := httptest.NewServer(NewWithConfig(testNetwork(t), Config{Replicas: 2}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Meta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Name != "srv" || m.Classes != 4 || m.InputH != 8 || m.InputC != 64 {
		t.Errorf("meta %+v", m)
	}
	// conv+pool fuse into one node, so the 3 declared layers serve as 2.
	if m.Replicas != 2 || m.Layers != 2 || m.FusedLayers != 1 {
		t.Errorf("meta %+v", m)
	}
	if m.Weights == 0 || m.PackedBytes == 0 {
		t.Error("missing size info")
	}
}

func TestInferMatchesDirectCall(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(NewWithConfig(net, Config{Replicas: 1}).Handler())
	defer ts.Close()
	x := workload.RandTensor(workload.NewRNG(131), 8, 8, 64)
	resp, out := postInfer(t, ts, x.Data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := net.Infer(x)
	if len(out.Logits) != len(want) {
		t.Fatalf("logit count %d", len(out.Logits))
	}
	for i := range want {
		if out.Logits[i] != want[i] {
			t.Fatalf("logit %d: server %v direct %v", i, out.Logits[i], want[i])
		}
	}
	best := 0
	for i, v := range want {
		if v > want[best] {
			best = i
		}
	}
	if out.Class != best {
		t.Errorf("class %d want %d", out.Class, best)
	}
}

func TestInferRejectsBadInput(t *testing.T) {
	ts := httptest.NewServer(NewWithConfig(testNetwork(t), Config{Replicas: 1}).Handler())
	defer ts.Close()

	resp, _ := postInfer(t, ts, make([]float32, 7)) // wrong length
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-length status %d", resp.StatusCode)
	}

	r2, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-json status %d", r2.StatusCode)
	}

	r3, err := http.Get(ts.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", r3.StatusCode)
	}
}

func TestConcurrentInference(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(NewWithConfig(net, Config{Replicas: 4}).Handler())
	defer ts.Close()

	const clients = 8
	inputs := make([][]float32, clients)
	want := make([][]float32, clients)
	for i := range inputs {
		x := workload.RandTensor(workload.NewRNG(uint64(140+i)), 8, 8, 64)
		inputs[i] = x.Data
		want[i] = net.Infer(x)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				body, _ := json.Marshal(InferRequest{Data: inputs[i]})
				resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out InferResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for c := range want[i] {
					if out.Logits[c] != want[i][c] {
						errs <- &mismatchError{client: i, logit: c}
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ client, logit int }

func (e *mismatchError) Error() string {
	return "concurrent inference mismatch"
}
