package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// ModelVersion reports the named model's currently-serving version.
func (s *Server) ModelVersion(name string) (string, error) {
	m, ok := s.lookup(name)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m.rm.Version(), nil
}

// LastReload returns the named model's most recent reload status, nil
// if it never reloaded.
func (s *Server) LastReload(name string) *registry.ReloadStatus {
	m, ok := s.lookup(name)
	if !ok {
		return nil
	}
	return m.rm.LastReload()
}

// seededNetwork builds the standard 8x8x64 test topology with chosen
// weights, so different seeds are genuinely different versions of the
// same request contract.
func seededNetwork(t *testing.T, name string, seed uint64) *graph.Network {
	t.Helper()
	net, err := graph.NewBuilder(name, 8, 8, 64, sched.Detect()).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Dense("d1", 4).
		Build(graph.RandomWeights{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// closeServer retires every model's replica set (ServeListener does this
// after drain; tests that never start a listener do it directly).
func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, m := range s.order {
		if err := m.rm.Close(ctx); err != nil {
			t.Errorf("closing %s: %v", m.name, err)
		}
	}
}

// TestReloadBuildsCandidateAtConfiguredReplicas: the candidate set a
// reload flips in has the model's configured replica count, all of them
// home in its pool, and /model reports that count.
func TestReloadBuildsCandidateAtConfiguredReplicas(t *testing.T) {
	s := NewWithConfig(seededNetwork(t, "m", 407), Config{Replicas: 3})
	defer closeServer(t, s)
	if _, err := s.ReloadModel(context.Background(), "", registry.FromNetwork("v2", seededNetwork(t, "m", 408))); err != nil {
		t.Fatalf("reload: %v", err)
	}
	rs := s.def.currentSet()
	if rs.version != "v2" || rs.replicas != 3 || len(rs.pool) != 3 || rs.meta.Replicas != 3 {
		t.Fatalf("post-reload set %s: %d replicas, %d pooled, meta %d; want v2 with 3/3/3",
			rs.version, rs.replicas, len(rs.pool), rs.meta.Replicas)
	}
}

// referenceLogits computes ground-truth logits on a private clone, so
// the serving path never touches the oracle network.
func referenceLogits(t *testing.T, net *graph.Network, xs []*workloadInput) [][]float32 {
	t.Helper()
	clone := net.Clone()
	refs := make([][]float32, len(xs))
	for i, x := range xs {
		refs[i] = append([]float32(nil), clone.Infer(x.tensor())...)
	}
	return refs
}

// workloadInput pairs a request body with its tensor form.
type workloadInput struct{ data []float32 }

func (w *workloadInput) tensor() *tensor.Tensor { return tensor.FromSlice(8, 8, 64, w.data) }

func probeInputs(n int, seed uint64) []*workloadInput {
	rng := workload.NewRNG(seed)
	xs := make([]*workloadInput, n)
	for i := range xs {
		x := workload.RandTensor(rng, 8, 8, 64)
		xs[i] = &workloadInput{data: x.Data}
	}
	return xs
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReloadSwapServesNewVersion is the happy path: after ReloadModel the
// served logits are bit-exact against the new weights and the reload
// ledger records the swap.
func TestReloadSwapServesNewVersion(t *testing.T) {
	netV1 := seededNetwork(t, "m", 200)
	netV2 := seededNetwork(t, "m", 201)
	xs := probeInputs(3, 210)
	refV1 := referenceLogits(t, netV1, xs)
	refV2 := referenceLogits(t, netV2, xs)

	s := NewWithConfig(netV1, Config{Replicas: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, x := range xs {
		resp, out := postInfer(t, ts, x.data)
		if resp.StatusCode != http.StatusOK || !bitEqual(out.Logits, refV1[i]) {
			t.Fatalf("v1 input %d: status %d logits %v, want %v", i, resp.StatusCode, out.Logits, refV1[i])
		}
	}

	st, err := s.ReloadModel(context.Background(), "", registry.FromNetwork("v2", netV2.Clone()))
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if st.Outcome != registry.OutcomeSwapped || st.From != "boot" || st.To != "v2" {
		t.Fatalf("reload status %+v", st)
	}
	if v, _ := s.ModelVersion(""); v != "v2" {
		t.Fatalf("version %q after swap", v)
	}

	for i, x := range xs {
		resp, out := postInfer(t, ts, x.data)
		if resp.StatusCode != http.StatusOK || !bitEqual(out.Logits, refV2[i]) {
			t.Fatalf("v2 input %d: status %d logits %v, want v2 logits", i, resp.StatusCode, out.Logits)
		}
	}

	// The per-model /statusz section carries the ledger.
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if raw["version"] != "v2" {
		t.Errorf("statusz version %v", raw["version"])
	}
	models, ok := raw["models"].(map[string]any)
	if !ok {
		t.Fatalf("statusz models section missing: %v", raw["models"])
	}
	sect, ok := models["m"].(map[string]any)
	if !ok {
		t.Fatalf("statusz models[m] missing: %v", models)
	}
	if sect["swaps"] != float64(1) || sect["version"] != "v2" {
		t.Errorf("model section %v", sect)
	}
	if _, ok := sect["last_reload"]; !ok {
		t.Error("model section has no last_reload")
	}
}

// TestReloadRejectsGeometryChange: a version swap must never change the
// request contract.
func TestReloadRejectsGeometryChange(t *testing.T) {
	s := NewWithConfig(seededNetwork(t, "m", 202), Config{Replicas: 1})
	other, err := graph.NewBuilder("m", 4, 4, 64, sched.Detect()).
		Dense("d1", 4).
		Build(graph.RandomWeights{Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadModel(context.Background(), "", registry.FromNetwork("v2", other)); err == nil {
		t.Fatal("reload accepted an artifact with different input geometry")
	}
	if v, _ := s.ModelVersion(""); v != "boot" {
		t.Fatalf("version %q changed by a rejected reload", v)
	}
}

// TestReloadSoakUnderLoad swaps versions repeatedly under sustained
// concurrent traffic and requires zero failed requests, every response
// bit-exact against one of the versions in play, and no leaked gate
// tokens or replicas afterwards. The subtest keeps the unbatched name
// it had when a batched pool was soaked beside it.
func TestReloadSoakUnderLoad(t *testing.T) {
	t.Run("unbatched", soakReload)
}

func soakReload(t *testing.T) {
	nets := []*graph.Network{
		seededNetwork(t, "soak", 220),
		seededNetwork(t, "soak", 221),
		seededNetwork(t, "soak", 222),
	}
	xs := probeInputs(4, 230)
	refs := make([][][]float32, len(nets))
	for v, n := range nets {
		refs[v] = referenceLogits(t, n, xs)
	}

	s := NewWithConfig(nets[0], Config{Replicas: 2, MaxQueue: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var failures atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	const clients = 2 // ≤ replicas: admission can never shed
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % len(xs)
				body, _ := json.Marshal(InferRequest{Data: xs[idx].data})
				resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d: %v", c, err)
					return
				}
				var out InferResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					failures.Add(1)
					t.Errorf("client %d: status %d (decode %v)", c, resp.StatusCode, decErr)
					return
				}
				match := false
				for v := range refs {
					if bitEqual(out.Logits, refs[v][idx]) {
						match = true
						break
					}
				}
				if !match {
					failures.Add(1)
					t.Errorf("client %d input %d: logits match no version", c, idx)
					return
				}
				served.Add(1)
			}
		}(c)
	}

	const swapsWanted = 6
	for i := 0; i < swapsWanted; i++ {
		// Swap only while traffic is flowing: on a single-core box
		// the swap loop can otherwise outrun client scheduling and
		// finish before any request lands.
		before := served.Load()
		waitCond(t, func() bool { return served.Load() > before })
		v := (i + 1) % len(nets)
		art := registry.FromNetwork(fmt.Sprintf("v%d", i+1), nets[v].Clone())
		st, err := s.ReloadModel(context.Background(), "", art)
		if err != nil {
			t.Fatalf("swap %d: %v (status %+v)", i, err, st)
		}
		if st.Outcome != registry.OutcomeSwapped || st.Stage != "" {
			t.Fatalf("swap %d: status %+v", i, st)
		}
	}
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d failed requests during reload soak", failures.Load())
	}
	if served.Load() == 0 {
		t.Fatal("soak served no traffic")
	}

	// Conservation after the dust settles: no tokens held, no
	// replicas missing, the last version serving.
	waitCond(t, func() bool {
		in := s.Introspect()
		return in.GateHeld == 0 && in.GateWaiting == 0 && in.PoolAvailable == in.Replicas
	})
	in := s.Introspect()
	if in.Version != fmt.Sprintf("v%d", swapsWanted) {
		t.Errorf("version %q after %d swaps", in.Version, swapsWanted)
	}
	if s.LastReload("").Outcome != registry.OutcomeSwapped {
		t.Errorf("last reload %+v", s.LastReload(""))
	}
}

// TestReloadVerifyFailureRollsBack injects a verification failure and
// requires a structured rollback with the old version still serving
// bit-exact logits.
func TestReloadVerifyFailureRollsBack(t *testing.T) {
	defer faultinject.Reset()
	netV1 := seededNetwork(t, "m", 240)
	xs := probeInputs(2, 241)
	refV1 := referenceLogits(t, netV1, xs)

	s := NewWithConfig(netV1, Config{Replicas: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
		if ev.Index == 0 {
			return fmt.Errorf("%w: candidate failed probe", faultinject.ErrInjected)
		}
		return nil
	})
	st, err := s.ReloadModel(context.Background(), "",
		registry.FromNetwork("v2", seededNetwork(t, "m", 242)))
	if err == nil {
		t.Fatal("injected verify failure did not error")
	}
	if st == nil || st.Outcome != registry.OutcomeRolledBack || st.Stage != registry.StageVerify {
		t.Fatalf("status %+v", st)
	}
	faultinject.Reset()

	if v, _ := s.ModelVersion(""); v != "boot" {
		t.Fatalf("version %q after rollback", v)
	}
	for i, x := range xs {
		resp, out := postInfer(t, ts, x.data)
		if resp.StatusCode != http.StatusOK || !bitEqual(out.Logits, refV1[i]) {
			t.Fatalf("post-rollback input %d: status %d, logits not bit-exact with old version", i, resp.StatusCode)
		}
	}
	in := s.Introspect()
	if in.GateHeld != 0 || in.PoolAvailable != in.Replicas {
		t.Fatalf("leak after rollback: %+v", in)
	}
}

// TestReloadPostFlipPanicRollsBackUnderLoad injects a panic after the
// pointer flip while traffic flows: the swap must roll back, capacity
// must be fully restored, and the old version must keep serving
// bit-exact logits.
func TestReloadPostFlipPanicRollsBackUnderLoad(t *testing.T) {
	defer faultinject.Reset()
	netV1 := seededNetwork(t, "m", 250)
	xs := probeInputs(2, 251)
	refV1 := referenceLogits(t, netV1, xs)
	refV2 := referenceLogits(t, seededNetwork(t, "m", 252), xs)

	s := NewWithConfig(netV1, Config{Replicas: 2, MaxQueue: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % len(xs)
				resp, out := postInfer(t, ts, xs[idx].data)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				// A request that raced the brief flip window may see v2;
				// anything else is corruption.
				if !bitEqual(out.Logits, refV1[idx]) && !bitEqual(out.Logits, refV2[idx]) {
					t.Errorf("client %d: logits match neither version", c)
					return
				}
			}
		}(c)
	}

	faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
		if ev.Index == 2 {
			panic("injected: crash after flip")
		}
		return nil
	})
	st, err := s.ReloadModel(context.Background(), "",
		registry.FromNetwork("v2", seededNetwork(t, "m", 252)))
	if err == nil {
		t.Fatal("post-flip panic did not error")
	}
	if st == nil || st.Outcome != registry.OutcomeRolledBack || st.Stage != registry.StageSwap {
		t.Fatalf("status %+v", st)
	}
	faultinject.Reset()
	close(stop)
	wg.Wait()

	if v, _ := s.ModelVersion(""); v != "boot" {
		t.Fatalf("version %q after rollback", v)
	}
	for i, x := range xs {
		resp, out := postInfer(t, ts, x.data)
		if resp.StatusCode != http.StatusOK || !bitEqual(out.Logits, refV1[i]) {
			t.Fatalf("post-rollback input %d not bit-exact on old version (status %d)", i, resp.StatusCode)
		}
	}
	waitCond(t, func() bool {
		in := s.Introspect()
		return in.GateHeld == 0 && in.PoolAvailable == in.Replicas
	})
	if got := s.def.rm.Rollbacks(); got != 1 {
		t.Errorf("rollbacks %d, want 1", got)
	}
}

// TestMultiModelRoutingAndIsolation serves two models and checks
// routing, per-model metrics isolation, and the 404 taxonomy.
func TestMultiModelRoutingAndIsolation(t *testing.T) {
	netA := seededNetwork(t, "alpha", 260)
	netB := seededNetwork(t, "beta", 261)
	xs := probeInputs(2, 262)
	refA := referenceLogits(t, netA, xs)
	refB := referenceLogits(t, netB, xs)

	s, err := NewMulti([]ModelSpec{
		{Name: "alpha", Net: netA, Cfg: Config{Replicas: 1}},
		{Name: "beta", Net: netB, Cfg: Config{Replicas: 1}, Default: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postTo := func(model string, data []float32) (int, InferResponse) {
		body, _ := json.Marshal(InferRequest{Data: data})
		resp, err := http.Post(ts.URL+"/v1/models/"+model+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out InferResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	for i, x := range xs {
		if code, out := postTo("alpha", x.data); code != http.StatusOK || !bitEqual(out.Logits, refA[i]) {
			t.Fatalf("alpha input %d: code %d", i, code)
		}
	}
	if code, out := postTo("beta", xs[0].data); code != http.StatusOK || !bitEqual(out.Logits, refB[0]) {
		t.Fatalf("beta: code %d", code)
	}
	// Legacy /infer routes to the default (beta).
	if resp, out := postInfer(t, ts, xs[0].data); resp.StatusCode != http.StatusOK || !bitEqual(out.Logits, refB[0]) {
		t.Fatalf("legacy /infer did not route to default model")
	}

	// Unknown model: stable machine-readable 404.
	body, _ := json.Marshal(InferRequest{Data: xs[0].data})
	resp, err := http.Post(ts.URL+"/v1/models/ghost/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || eresp.Code != "unknown_model" {
		t.Fatalf("ghost model: %d %+v", resp.StatusCode, eresp)
	}

	// QoS isolation: alpha's counters saw only alpha's traffic.
	if got := s.ModelMetrics("alpha").Requests.Load(); got != int64(len(xs)) {
		t.Errorf("alpha requests %d, want %d", got, len(xs))
	}
	if got := s.ModelMetrics("beta").Requests.Load(); got != 2 { // one direct + one legacy
		t.Errorf("beta requests %d, want 2", got)
	}

	// /v1/models lists both with the default flagged.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 2 || listing.Models[0].Name != "alpha" || !listing.Models[1].Default {
		t.Fatalf("listing %+v", listing.Models)
	}

	// Per-model readiness in /readyz.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rs ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rs.Ready || len(rs.Models) != 2 {
		t.Fatalf("readyz %d %+v", resp.StatusCode, rs)
	}
	if mr := rs.Models["alpha"]; !mr.Ready || mr.Version != "boot" {
		t.Errorf("alpha readiness %+v", mr)
	}
}

// TestAdminAutoscaleIsGone: replica counts are static, so the admin mux
// has no autoscale endpoint; a GET or POST there must be a 404, not a
// silently accepted pin.
func TestAdminAutoscaleIsGone(t *testing.T) {
	s := NewWithConfig(seededNetwork(t, "m", 272), Config{Replicas: 1})
	admin := httptest.NewServer(s.AdminHandler(func(path, version string) (*registry.Artifact, error) {
		return nil, fmt.Errorf("no loads in this test")
	}))
	defer admin.Close()
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, admin.URL+"/admin/autoscale",
			bytes.NewReader([]byte(`{"action":"pin","replicas":2}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /admin/autoscale: status %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestAdminReloadEndpoint drives the operator surface end to end: load
// an artifact from disk, swap, and surface rollbacks as 422s with the
// structured status.
func TestAdminReloadEndpoint(t *testing.T) {
	defer faultinject.Reset()
	netV1 := seededNetwork(t, "m", 270)
	s := NewWithConfig(netV1, Config{Replicas: 1})
	admin := httptest.NewServer(s.AdminHandler(func(path, version string) (*registry.Artifact, error) {
		return registry.LoadArtifact(path, version, sched.Detect())
	}))
	defer admin.Close()

	saveNet := func(net *graph.Network) string {
		t.Helper()
		path := t.TempDir() + "/m.bflw"
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path := saveNet(seededNetwork(t, "m", 271))

	post := func(body string) (int, ReloadResponse) {
		t.Helper()
		resp, err := http.Post(admin.URL+"/admin/reload", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReloadResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}

	// Happy path: 200 with the swap status.
	code, rr := post(fmt.Sprintf(`{"model":"m","path":%q,"version":"v2"}`, path))
	if code != http.StatusOK || rr.Status == nil || rr.Status.Outcome != registry.OutcomeSwapped {
		t.Fatalf("reload: %d %+v", code, rr)
	}
	if v, _ := s.ModelVersion(""); v != "v2" {
		t.Fatalf("version %q", v)
	}

	// Unknown model.
	if code, _ := post(`{"model":"ghost","path":"/nope"}`); code != http.StatusNotFound {
		t.Fatalf("ghost reload: %d", code)
	}
	// Missing path.
	if code, _ := post(`{"model":"m"}`); code != http.StatusBadRequest {
		t.Fatalf("missing path: %d", code)
	}
	// Loader failure: 422 with the error.
	code, rr = post(`{"model":"m","path":"/does/not/exist.bflw"}`)
	if code != http.StatusUnprocessableEntity || rr.Error == "" {
		t.Fatalf("load failure: %d %+v", code, rr)
	}
	// Injected verify failure: 422 carrying the rollback status.
	faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
		if ev.Index == 0 {
			return fmt.Errorf("%w: probe mismatch", faultinject.ErrInjected)
		}
		return nil
	})
	code, rr = post(fmt.Sprintf(`{"model":"m","path":%q,"version":"v3"}`, path))
	if code != http.StatusUnprocessableEntity || rr.Status == nil ||
		rr.Status.Outcome != registry.OutcomeRolledBack || rr.Error == "" {
		t.Fatalf("injected rollback: %d %+v", code, rr)
	}
	if v, _ := s.ModelVersion(""); v != "v2" {
		t.Fatalf("version %q changed by rolled-back reload", v)
	}
	// The admin ledger shows the attempt.
	resp, err := http.Get(admin.URL + "/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Models []struct {
			Name      string `json:"name"`
			Version   string `json:"version"`
			Swaps     int64  `json:"swaps"`
			Rollbacks int64  `json:"rollbacks"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ledger.Models) != 1 || ledger.Models[0].Swaps != 1 || ledger.Models[0].Rollbacks != 1 {
		t.Fatalf("ledger %+v", ledger.Models)
	}
}
