package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"bitflow/internal/control"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/tensor"
)

// quickAutoscale is a controller configuration fast enough for tests:
// 2ms ticks, minimal cooldown.
func quickAutoscale(maxReplicas int) *AutoscaleConfig {
	return &AutoscaleConfig{
		Interval:    2 * time.Millisecond,
		MaxReplicas: maxReplicas,
		Cooldown:    1,
	}
}

func TestActuatorResizesUnbatchedPoolBitExact(t *testing.T) {
	net := seededNetwork(t, "m", 400)
	xs := probeInputs(4, 410)
	ref := referenceLogits(t, net, xs)

	s := NewWithConfig(net, Config{Replicas: 1, Autoscale: quickAutoscale(3)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	act := &modelActuator{m: s.def, timeout: 5 * time.Second}
	sp := control.Setpoints{Replicas: 3}
	if err := act.Apply(context.Background(), sp); err != nil {
		t.Fatalf("grow: %v", err)
	}
	in := s.Introspect()
	if in.Replicas != 3 || in.GateCapacity != 3 || in.PoolAvailable != 3 {
		t.Fatalf("after grow: replicas=%d gate=%d pool=%d, want 3/3/3", in.Replicas, in.GateCapacity, in.PoolAvailable)
	}
	// Every grown replica serves the reference logits bit-for-bit. Three
	// concurrent requests force all three replicas into use at least once
	// across the sweep.
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for i, x := range xs {
			wg.Add(1)
			go func(i int, data []float32) {
				defer wg.Done()
				body, _ := json.Marshal(InferRequest{Data: data})
				resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("infer: %v", err)
					return
				}
				defer resp.Body.Close()
				var out InferResponse
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				if !bitEqual(out.Logits, ref[i]) {
					t.Errorf("input %d: grown replica diverged: %v vs %v", i, out.Logits, ref[i])
				}
			}(i, x.data)
		}
		wg.Wait()
	}

	// Shrink back below the starting point is refused only by bounds the
	// CONTROLLER enforces; the actuator itself honors any n ≥ 1.
	sp.Replicas = 1
	if err := act.Apply(context.Background(), sp); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	in = s.Introspect()
	if in.Replicas != 1 || in.GateCapacity != 1 || in.PoolAvailable != 1 {
		t.Fatalf("after shrink: replicas=%d gate=%d pool=%d, want 1/1/1", in.Replicas, in.GateCapacity, in.PoolAvailable)
	}
	// A second Apply with identical setpoints is a no-op, not a resize.
	before := s.def.rm.Resizes()
	if err := act.Apply(context.Background(), sp); err != nil {
		t.Fatalf("idempotent apply: %v", err)
	}
	if s.def.rm.Resizes() != before {
		t.Fatal("no-op apply triggered a resize")
	}
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

// slowBackend holds each inference for a fixed delay so a small client
// fleet keeps the admission gate visibly saturated — fast real inferences
// leave the gate empty at most controller sampling instants.
type slowBackend struct {
	net   *graph.Network
	delay time.Duration
}

func (b *slowBackend) infer(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.net.InferChecked(x)
}

func (b *slowBackend) clone() backend { return &slowBackend{net: b.net.Clone(), delay: b.delay} }

func TestControllerScalesUpUnderLoadAndBackDown(t *testing.T) {
	net := seededNetwork(t, "m", 402)
	s := newServer(metaFor(net), &slowBackend{net: net, delay: 3 * time.Millisecond}, Config{
		Replicas: 1, MaxQueue: 4, RequestTimeout: 5 * time.Second,
		Autoscale: quickAutoscale(3),
	})
	l, err := net2Listen(t)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(ctx, l, HTTPConfig{}) }()
	base := "http://" + l.Addr().String()
	x := probeInputs(1, 420)[0]
	body, _ := json.Marshal(InferRequest{Data: x.data})

	// Closed-loop overload: 8 clients against 1 replica keeps the gate
	// saturated with waiters, so the controller must add replicas.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	waitCond(t, func() bool { return s.Introspect().Replicas > 1 })
	close(stop)
	wg.Wait()

	// Idle: the gate is empty, so the controller walks back to the floor.
	waitCond(t, func() bool { return s.Introspect().Replicas == 1 })

	st := s.ControlStatus("")
	if st == nil || st.Actuations < 2 {
		t.Fatalf("control status %+v: expected at least one scale-up and one scale-down", st)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestStatuszControlSection(t *testing.T) {
	net := seededNetwork(t, "m", 403)
	s := NewWithConfig(net, Config{Replicas: 2, Autoscale: quickAutoscale(4)})
	defer closeServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := getStatusz(t, ts.URL)
	if st.Control == nil {
		t.Fatal("autoscaled server has no control section")
	}
	if st.Control.State != control.StateAdapting {
		t.Fatalf("state %q, want adapting", st.Control.State)
	}
	if st.Control.Setpoints.Replicas != 2 || st.Control.Static.Replicas != 2 {
		t.Fatalf("setpoints %+v static %+v, want replicas 2", st.Control.Setpoints, st.Control.Static)
	}
	if st.Control.Bounds.MaxReplicas != 4 || st.Control.Bounds.MinReplicas != 1 {
		t.Fatalf("bounds %+v", st.Control.Bounds)
	}

	// A plain server has no control key at all.
	s2 := NewWithConfig(seededNetwork(t, "m", 404), Config{Replicas: 1})
	defer closeServer(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["control"]; ok {
		t.Fatal("non-autoscaled statusz grew a control key")
	}
}

func TestAdminAutoscalePinUnpin(t *testing.T) {
	net := seededNetwork(t, "m", 405)
	s := NewWithConfig(net, Config{Replicas: 1, Autoscale: quickAutoscale(4)})
	defer closeServer(t, s)
	admin := httptest.NewServer(s.AdminHandler(nil))
	defer admin.Close()

	post := func(body string) (*http.Response, AutoscaleResponse) {
		t.Helper()
		resp, err := http.Post(admin.URL+"/admin/autoscale", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var out AutoscaleResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, out
	}

	// Pin replicas to 3: the resize actually lands, and the controller
	// freezes there.
	resp, out := post(`{"action":"pin","replicas":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin: status %d (%s)", resp.StatusCode, out.Error)
	}
	if out.Status.State != control.StatePinned || out.Status.Setpoints.Replicas != 3 {
		t.Fatalf("pin status %+v", out.Status)
	}
	if in := s.Introspect(); in.Replicas != 3 || in.GateCapacity != 3 {
		t.Fatalf("pin did not actuate: %+v", in)
	}

	// Pin requests clamp into bounds (MaxReplicas 4).
	resp, out = post(`{"action":"pin","replicas":99}`)
	if resp.StatusCode != http.StatusOK || out.Status.Setpoints.Replicas != 4 {
		t.Fatalf("out-of-bounds pin: status %d %+v", resp.StatusCode, out.Status)
	}

	resp, out = post(`{"action":"unpin"}`)
	if resp.StatusCode != http.StatusOK || out.Status.State != control.StateAdapting {
		t.Fatalf("unpin: status %d state %+v", resp.StatusCode, out.Status)
	}

	if resp, _ = post(`{"model":"ghost","action":"pin"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model pin: status %d", resp.StatusCode)
	}
	if resp, _ = post(`{"action":"sideways"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action: status %d", resp.StatusCode)
	}
	// The coalescer's window and max-batch axes are gone: a pin that still
	// names them is rejected, not half-applied.
	for _, body := range []string{
		`{"action":"pin","replicas":2,"max_batch":16}`,
		`{"action":"pin","window":"2ms"}`,
	} {
		if resp, _ = post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("pin with a removed axis %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := s.ControlStatus(""); st.Setpoints.Replicas != 4 {
		t.Fatalf("a rejected pin moved the setpoint: %+v", st.Setpoints)
	}

	// GET reports the controller.
	getResp, err := http.Get(admin.URL + "/admin/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models map[string]*control.Status `json:"models"`
	}
	if err := json.NewDecoder(getResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if len(listing.Models) != 1 || listing.Models[net.Name] == nil {
		t.Fatalf("autoscale listing %+v", listing.Models)
	}

	// A server without autoscaling answers 422, not 404.
	s2 := NewWithConfig(seededNetwork(t, "m", 406), Config{Replicas: 1})
	defer closeServer(t, s2)
	admin2 := httptest.NewServer(s2.AdminHandler(nil))
	defer admin2.Close()
	resp2, err := http.Post(admin2.URL+"/admin/autoscale", "application/json",
		bytes.NewReader([]byte(`{"action":"pin","replicas":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("pin without autoscale: status %d, want 422", resp2.StatusCode)
	}
}

func TestReloadBuildsCandidateAtLiveSetpoints(t *testing.T) {
	netV1 := seededNetwork(t, "m", 407)
	netV2 := seededNetwork(t, "m", 408)
	s := NewWithConfig(netV1, Config{Replicas: 1, Autoscale: quickAutoscale(3)})
	defer closeServer(t, s)

	act := &modelActuator{m: s.def, timeout: 5 * time.Second}
	if err := act.Apply(context.Background(), control.Setpoints{Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	// Pin so the (unstarted) controller's setpoints stay at 2.
	if _, err := s.PinModel(context.Background(), "", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadModel(context.Background(), "", registry.FromNetwork("v2", netV2.Clone())); err != nil {
		t.Fatalf("reload: %v", err)
	}
	in := s.Introspect()
	if in.Version != "v2" || in.Replicas != 2 || in.PoolAvailable != 2 {
		t.Fatalf("post-reload introspection %+v, want v2 at 2 replicas", in)
	}
}

func TestAutoscaleConfigValidation(t *testing.T) {
	net := seededNetwork(t, "m", 409)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"static replicas above max", Config{Replicas: 4, Autoscale: &AutoscaleConfig{MaxReplicas: 2}}},
		{"min above max", Config{Replicas: 1, Autoscale: &AutoscaleConfig{MinReplicas: 3, MaxReplicas: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMulti([]ModelSpec{{Name: "m", Net: net, Cfg: tc.cfg}})
			if err == nil {
				t.Fatal("contradictory autoscale config accepted")
			}
		})
	}
}

func TestRetryAfterDerivedFromCongestion(t *testing.T) {
	net := seededNetwork(t, "m", 411)
	s := NewWithConfig(net, Config{Replicas: 1, MaxQueue: 8})
	defer closeServer(t, s)
	m := s.def

	// No latency history: the estimate degrades to the legacy "1".
	if got := retryAfter(m); got != "1" {
		t.Fatalf("cold retryAfter = %q, want 1", got)
	}

	// 2s typical service time, 1 token held, 2 waiting → ceil(3×2s/1) = 6s.
	for i := 0; i < 8; i++ {
		m.rm.Metrics().ObserveLatency(2 * time.Second)
	}
	g := m.rm.Gate()
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = g.Acquire(wctx)
		}()
	}
	waitCond(t, func() bool { return g.Waiting() == 2 })
	got, err := strconv.Atoi(retryAfter(m))
	if err != nil || got != 6 {
		t.Fatalf("retryAfter = %v (err %v), want 6", got, err)
	}
	wcancel()
	wg.Wait()
	g.Release()

	// The hint is clamped to a minute no matter how deep the backlog.
	for i := 0; i < 64; i++ {
		m.rm.Metrics().ObserveLatency(90 * time.Second)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := retryAfter(m); got != "60" {
		t.Fatalf("clamped retryAfter = %q, want 60", got)
	}
	g.Release()
}
