package serve

// Failure-path tests: panic isolation, load shedding, deadlines, graceful
// shutdown, readiness. These exercise the resilience layer with faulty /
// blocking backends injected below the HTTP handler, under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitflow/internal/graph"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func metaFor(net *graph.Network) Meta {
	return Meta{
		Name:   net.Name,
		InputH: net.InH, InputW: net.InW, InputC: net.InC,
		Classes: net.Classes,
	}
}

// faultBackend panics when the first input value equals trigger —
// standing in for a panicking layer deep in graph/bitpack/kernels.
type faultBackend struct {
	net     *graph.Network
	trigger float32
}

func (b *faultBackend) infer(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	if x.Data[0] == b.trigger {
		panic("injected layer panic")
	}
	return b.net.InferChecked(x)
}

func (b *faultBackend) clone() backend {
	return &faultBackend{net: b.net.Clone(), trigger: b.trigger}
}

// blockingBackend parks every inference (after the warm-up call) until the
// test releases it, making saturation and drain states deterministic.
type blockingBackend struct {
	net     *graph.Network
	calls   *atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func newBlockingBackend(net *graph.Network) *blockingBackend {
	return &blockingBackend{
		net:     net,
		calls:   new(atomic.Int64),
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingBackend) infer(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	if b.calls.Add(1) > 1 { // first call is the constructor's warm-up
		b.entered <- struct{}{}
		<-b.release
	}
	return b.net.InferChecked(x)
}

func (b *blockingBackend) clone() backend {
	return &blockingBackend{net: b.net.Clone(), calls: b.calls, entered: b.entered, release: b.release}
}

// errBackend fails every inference — used to prove warm-up gates /readyz.
type errBackend struct{}

func (errBackend) infer(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	return nil, fmt.Errorf("backend permanently broken")
}
func (e errBackend) clone() backend { return e }

func decodeError(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	resp.Body.Close()
	return e
}

func getStatusz(t *testing.T, base string) Statusz {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPanicRecoveryRestoresCapacity is the headline robustness test: K
// panicking requests interleaved with good ones must leave the server
// serving with ALL replicas available — no capacity loss, ever.
func TestPanicRecoveryRestoresCapacity(t *testing.T) {
	net := testNetwork(t)
	const replicas = 2
	s := newServer(metaFor(net), &faultBackend{net: net, trigger: 999}, Config{
		Replicas: replicas, RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(150), 8, 8, 64)
	want := net.Infer(x)
	bad := make([]float32, len(x.Data))
	copy(bad, x.Data)
	bad[0] = 999

	const K = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() { // panicking request must get a structured 500
			defer wg.Done()
			resp, _ := postInfer(t, ts, bad)
			if resp.StatusCode != http.StatusInternalServerError {
				errs <- fmt.Errorf("panic request: status %d", resp.StatusCode)
			}
		}()
		wg.Add(1)
		go func() { // interleaved good request must still succeed
			defer wg.Done()
			resp, out := postInfer(t, ts, x.Data)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("good request: status %d", resp.StatusCode)
				return
			}
			for c := range want {
				if out.Logits[c] != want[c] {
					errs <- fmt.Errorf("good request: logit %d drifted after panics", c)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Structured error body on the panic path.
	body, _ := json.Marshal(InferRequest{Data: bad})
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "panic" || e.Error == "" {
		t.Errorf("panic error body %+v", e)
	}

	// Full capacity must survive: every replica slot back in the pool,
	// and `replicas` simultaneous good requests all succeed.
	if got := s.Introspect().PoolAvailable; got != replicas {
		t.Fatalf("pool has %d replicas after panics, want %d", got, replicas)
	}
	st := getStatusz(t, ts.URL)
	if st.ReplicasAvailable != replicas {
		t.Errorf("statusz replicas_available %d, want %d", st.ReplicasAvailable, replicas)
	}
	if st.Metrics.PanicsRecovered != K+1 {
		t.Errorf("panics_recovered %d, want %d", st.Metrics.PanicsRecovered, K+1)
	}
	var wg2 sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if resp, _ := postInfer(t, ts, x.Data); resp.StatusCode != http.StatusOK {
				t.Errorf("post-recovery request: status %d", resp.StatusCode)
			}
		}()
	}
	wg2.Wait()
}

// TestSaturationSheds429 pins the overload contract: with one replica
// busy and the one queue slot taken, the next request gets an immediate
// 429 with Retry-After instead of queueing unboundedly.
func TestSaturationSheds429(t *testing.T) {
	net := testNetwork(t)
	bb := newBlockingBackend(net)
	s := newServer(metaFor(net), bb, Config{
		Replicas: 1, MaxQueue: 1, RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(151), 8, 8, 64)
	type result struct {
		status int
		out    InferResponse
	}
	results := make(chan result, 2)
	post := func() {
		resp, out := postInfer(t, ts, x.Data)
		results <- result{resp.StatusCode, out}
	}

	go post()
	<-bb.entered // request A now holds the only replica

	go post() // request B joins the queue
	waitCond(t, func() bool { return s.Introspect().GateWaiting == 1 })

	// Request C: queue full → immediate 429 + Retry-After.
	body, _ := json.Marshal(InferRequest{Data: x.Data})
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeError(t, resp); e.Code != "queue_full" {
		t.Errorf("shed error body %+v", e)
	}

	bb.release <- struct{}{} // A finishes, B enters
	<-bb.entered
	bb.release <- struct{}{} // B finishes
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Errorf("admitted request %d: status %d", i, r.status)
		}
	}
	if st := getStatusz(t, ts.URL); st.Metrics.Shed < 1 {
		t.Errorf("shed counter %d", st.Metrics.Shed)
	}
}

// TestDeadlineWhileQueued503 pins the deadline contract: a request whose
// deadline expires while waiting for a replica gets 503 + Retry-After.
func TestDeadlineWhileQueued503(t *testing.T) {
	net := testNetwork(t)
	bb := newBlockingBackend(net)
	s := newServer(metaFor(net), bb, Config{
		Replicas: 1, MaxQueue: 4, RequestTimeout: 80 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(152), 8, 8, 64)
	done := make(chan int, 1)
	go func() {
		resp, _ := postInfer(t, ts, x.Data)
		done <- resp.StatusCode
	}()
	<-bb.entered // A holds the replica past every deadline

	body, _ := json.Marshal(InferRequest{Data: x.Data})
	t0 := time.Now()
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline status %d, want 503", resp.StatusCode)
	}
	if time.Since(t0) > 5*time.Second {
		t.Errorf("deadline shed took %v", time.Since(t0))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if e := decodeError(t, resp); e.Code != "deadline" {
		t.Errorf("deadline error body %+v", e)
	}

	bb.release <- struct{}{}
	if status := <-done; status != http.StatusOK {
		t.Errorf("blocked request finished with %d", status)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks a request
// in-flight, cancels the serve context, and asserts the request completes
// 200 and the server exits clean — the SIGTERM drain path end to end.
func TestGracefulShutdownDrains(t *testing.T) {
	net := testNetwork(t)
	bb := newBlockingBackend(net)
	s := newServer(metaFor(net), bb, Config{Replicas: 1, RequestTimeout: 10 * time.Second})

	l, err := net2Listen(t)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ServeListener(ctx, l, HTTPConfig{ShutdownGrace: 5 * time.Second})
	}()

	if !s.Ready() {
		t.Fatal("server not ready before shutdown")
	}
	x := workload.RandTensor(workload.NewRNG(153), 8, 8, 64)
	body, _ := json.Marshal(InferRequest{Data: x.Data})
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-bb.entered // request is mid-inference

	cancel() // SIGTERM equivalent: drain begins
	waitCond(t, func() bool { return !s.Ready() })

	bb.release <- struct{}{} // let the in-flight request finish
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", status)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after drain")
	}
}

func TestReadyzGatedByWarmup(t *testing.T) {
	net := testNetwork(t)

	good := httptest.NewServer(NewWithConfig(net, Config{Replicas: 1}).Handler())
	defer good.Close()
	resp, err := http.Get(good.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy readyz %d", resp.StatusCode)
	}

	broken := newServer(metaFor(net), errBackend{}, Config{Replicas: 1})
	bs := httptest.NewServer(broken.Handler())
	defer bs.Close()
	resp, err = http.Get(bs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("broken readyz %d, want 503", resp.StatusCode)
	}
	// Liveness stays up even when not ready.
	resp, err = http.Get(bs.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("livez %d", resp.StatusCode)
	}
}

func TestStatuszCounters(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(NewWithConfig(net, Config{Replicas: 2}).Handler())
	defer ts.Close()

	x := workload.RandTensor(workload.NewRNG(154), 8, 8, 64)
	for i := 0; i < 3; i++ {
		if resp, _ := postInfer(t, ts, x.Data); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	postInfer(t, ts, make([]float32, 3)) // one bad request

	st := getStatusz(t, ts.URL)
	if st.Model != "srv" || !st.Ready || st.Replicas != 2 {
		t.Errorf("statusz identity %+v", st)
	}
	if st.Metrics.Requests != 4 || st.Metrics.OK != 3 || st.Metrics.BadRequests != 1 {
		t.Errorf("statusz counters %+v", st.Metrics)
	}
	if st.Metrics.LatencySamples != 3 {
		t.Errorf("statusz latency %+v", st.Metrics)
	}
	if st.RequestTimeout == "" || st.MaxQueue == 0 {
		t.Errorf("statusz config %+v", st)
	}
}

func TestNonFiniteInputRejected(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(NewWithConfig(net, Config{Replicas: 1}).Handler())
	defer ts.Close()

	for name, poison := range map[string]float64{
		"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1),
	} {
		data := make([]float32, net.InH*net.InW*net.InC)
		data[7] = float32(poison)
		// encoding/json cannot marshal NaN/Inf, so build the body by hand
		// the way a hostile client would.
		var buf bytes.Buffer
		buf.WriteString(`{"data":[`)
		for i, v := range data {
			if i > 0 {
				buf.WriteByte(',')
			}
			if i == 7 {
				switch name {
				case "nan":
					buf.WriteString("NaN")
				case "+inf":
					buf.WriteString("Infinity")
				default:
					buf.WriteString("-Infinity")
				}
			} else {
				fmt.Fprintf(&buf, "%g", v)
			}
		}
		buf.WriteString(`]}`)
		resp, err := http.Post(ts.URL+"/infer", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		// Go's decoder rejects bare NaN/Infinity tokens outright; either
		// way the server must answer 400, never binarize garbage.
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// encoding/json can never hand the handler a NaN (bare tokens fail to
	// decode, as asserted above), so exercise the defence-in-depth check
	// directly — it guards future non-JSON ingest paths.
	if err := validateFinite([]float32{1, float32(math.NaN()), 3}); err == nil {
		t.Error("validateFinite accepted NaN")
	}
	if err := validateFinite([]float32{float32(math.Inf(-1))}); err == nil {
		t.Error("validateFinite accepted -Inf")
	}
	if err := validateFinite([]float32{0, -1, 1e30}); err != nil {
		t.Errorf("validateFinite rejected finite data: %v", err)
	}
}

func TestMethodAndContentTypeChecks(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(NewWithConfig(net, Config{Replicas: 1}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/model", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /model status %d", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" {
		t.Error("405 without Allow header")
	}
	resp.Body.Close()

	body, _ := json.Marshal(InferRequest{Data: make([]float32, net.InH*net.InW*net.InC)})
	resp, err = http.Post(ts.URL+"/infer", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain /infer status %d, want 415", resp.StatusCode)
	}
	resp.Body.Close()
}

// net2Listen avoids shadowing the graph import name `net` in tests.
func net2Listen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
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
