// Package conformance is the closed-loop verification harness for the
// serving stack's fault tolerance: it drives a seeded, randomized request
// workload through a live server while a seed-derived fault script
// (internal/faultinject) injects panics, stalls, and errors into serve,
// exec, graph, and registry — then a model-based oracle checks
// the stack's conservation invariants, which must hold after EVERY
// schedule:
//
//   - gate tokens conserved: once quiet, zero held, zero waiting, every
//     replica back in the pool (capacity never leaks across panics);
//   - every request completed exactly once: each client call returns one
//     response and the server drains cleanly (no wedged request);
//   - metrics conservation: requests == ok + bad + shed + panicked as
//     observed by the clients themselves;
//   - recovery: after the script is disarmed, a full-width probe wave
//     must succeed — replicas are restored, not merely limping;
//   - correctness: every 200 carries logits bit-identical to a serial
//     reference inference of the same input.
//
// A violation fails with the seed and the full fault script, so any
// failure replays exactly. The suite runs under -race in verify.sh.
//
//bitflow:keep test harness: conformance_test.go and scenarios_test.go run it; no program arms faults
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/resilience"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
	"bitflow/internal/tensor"
)

// Config parameterizes one conformance run. The zero value is not usable;
// start from Defaults(seed).
type Config struct {
	// Seed drives both the fault script (when Script is nil) and the
	// workload's request mix. Same seed, same schedule.
	Seed int64
	// Script overrides the seed-generated fault script — how the named
	// scenario tests pin one exact fault.
	Script *faultinject.Script
	// Replicas / MaxQueue / RequestTimeout mirror serve.Config.
	Replicas       int
	MaxQueue       int
	RequestTimeout time.Duration
	// Clients is the number of concurrent request loops; Requests is the
	// total request count they share.
	Clients  int
	Requests int
	// Models is the number of models served (default 1). With more than
	// one, models are named m0..mN-1 (each with distinct weights), the
	// workload round-robins over /v1/models/{name}/infer, and the
	// conservation laws are checked per model.
	Models int
	// Reloads is the number of hot version swaps performed on the
	// default model while the workload runs. The reload artifacts carry
	// the same weights under new version labels, so the bit-exactness
	// law holds across every flip; a fault script may still force any
	// swap to roll back, which the oracle accepts as long as the ledger
	// and the conservation laws agree.
	Reloads int
	// Compressed builds every model with duplicated conv filter banks so
	// the load-time kernel-compression pass selects the compressed
	// forward path, and computes the serial reference logits on an
	// *uncompressed* clone — Law 2 then doubles as a
	// compressed-vs-uncompressed differential under the fault schedule.
	Compressed bool
}

// Defaults returns a small-but-concurrent workload configuration for the
// given seed: enough clients to keep the queue contended, few enough
// requests that a -race run stays in CI budget.
func Defaults(seed int64) Config {
	return Config{
		Seed:           seed,
		Replicas:       2,
		MaxQueue:       4,
		RequestTimeout: 1 * time.Second,
		Clients:        4,
		Requests:       48,
	}
}

// reqKind is one workload request shape.
type reqKind int

const (
	kindGood       reqKind = iota // valid input, expects 200 absent faults
	kindShortInput                // wrong-length data, expects 400
	kindBadJSON                   // malformed body, expects 400
)

// Outcome records what one client observed for one request.
type Outcome struct {
	Kind   reqKind
	Model  string // which model the request targeted
	Input  int    // index into the reference input set (kindGood only)
	Status int
	Code   string // machine-readable error code for non-200s
	Logits []float32
	Err    error // transport-level failure (always a violation)
}

// ReloadOutcome records one hot-swap attempt made during the workload.
type ReloadOutcome struct {
	Status *registry.ReloadStatus
	Err    string // the swap error; "" on a clean swap
}

// Result is one run's full evidence: the schedule that ran, what every
// client saw, the server's terminal state, and the oracle's verdict.
type Result struct {
	Config   Config
	Script   *faultinject.Script
	Outcomes []Outcome
	Probes   []Outcome
	Reloads  []ReloadOutcome
	Snapshot resilience.Snapshot
	State    serve.Introspection
	DrainErr error

	// Per-model terminal state, keyed by model name — the single-model
	// run has one entry mirroring Snapshot/State.
	ModelStates    map[string]serve.Introspection
	ModelSnapshots map[string]resilience.Snapshot

	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders the verdict with everything needed to replay it.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: seed=%d replicas=%d: %d violations\n",
		r.Config.Seed, r.Config.Replicas, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(r.Script.String(), "\n", "\n  "))
	fmt.Fprintf(&b, "  replay: BITFLOW_CONFORMANCE_SEED=%d go test -race -count=1 -run 'TestConformanceRotatingSeed' ./internal/faultinject/conformance\n",
		r.Config.Seed)
	return b.String()
}

func (r *Result) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// buildNetwork constructs one conformance model: the same small
// conv→pool→dense topology the serve tests pin, deterministic weights
// derived from the given seed so distinct models are distinguishable by
// their logits.
func buildNetwork(name string, seed uint64, compressed bool) (*graph.Network, error) {
	var ws graph.WeightSource = graph.RandomWeights{Seed: seed}
	if compressed {
		ws = dupWeights{RandomWeights: graph.RandomWeights{Seed: seed}}
	}
	return graph.NewBuilder(name, 8, 8, 64, sched.Detect()).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Dense("d1", 4).
		Build(ws)
}

// dupWeights repeats one of four base filter patterns per output channel,
// so the conv bank's packed words duplicate with ratio ≥ K/4 and the
// layer crosses the kernel-compression threshold at build time.
type dupWeights struct {
	graph.RandomWeights
}

func (d dupWeights) ConvFilter(name string, k, kh, kw, c int) (*tensor.Filter, error) {
	f, err := d.RandomWeights.ConvFilter(name, k, kh, kw, c)
	if err == nil {
		per := kh * kw * c
		for i := 4; i < k; i++ {
			copy(f.Data[i*per:(i+1)*per], f.Data[(i%4)*per:(i%4+1)*per])
		}
	}
	return f, err
}

const numInputs = 8

// makeInputs derives the reference input set from the seed.
func makeInputs(seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	inputs := make([][]float32, numInputs)
	for i := range inputs {
		data := make([]float32, 8*8*64)
		for j := range data {
			data[j] = rng.Float32()*2 - 1
		}
		inputs[i] = data
	}
	return inputs
}

// Run executes one full conformance schedule and returns the oracle's
// verdict. It owns the process-global fault hooks for its duration:
// callers must not run two conformance schedules concurrently (the tests
// in this package are serial for exactly that reason).
func Run(cfg Config) (*Result, error) {
	if cfg.Models < 1 {
		cfg.Models = 1
	}
	// Model names: the single-model run keeps the legacy identity (and
	// the legacy /infer route); multi-model runs use m0..mN-1.
	names := make([]string, cfg.Models)
	nets := make([]*graph.Network, cfg.Models)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if cfg.Models == 1 {
			names[i] = "conformance"
		}
		net, err := buildNetwork(names[i], 130+uint64(i), cfg.Compressed)
		if err != nil {
			return nil, fmt.Errorf("conformance: building network %s: %w", names[i], err)
		}
		if cfg.Compressed && net.CompressedLayers() == 0 {
			return nil, fmt.Errorf("conformance: model %s did not select the compressed path", names[i])
		}
		nets[i] = net
	}
	inputs := makeInputs(cfg.Seed)

	// Serial reference logits per model, computed on private clones
	// before any fault hook is armed. Every 200 the workload sees must
	// match its model's references bit for bit — including across hot
	// reloads, whose artifacts carry the same weights.
	refLogits := make(map[string][][]float32, cfg.Models)
	for m, net := range nets {
		ref := net.Clone()
		if cfg.Compressed {
			// The reference runs the uncompressed plan: every 200 is then a
			// compressed-vs-uncompressed bit-equality check.
			ref = net.CloneUncompressed()
		}
		refs := make([][]float32, len(inputs))
		for i, data := range inputs {
			x := tensor.FromSlice(8, 8, 64, data)
			out, err := ref.InferContext(context.Background(), x)
			if err != nil {
				return nil, fmt.Errorf("conformance: reference inference %s/%d: %w", names[m], i, err)
			}
			refs[i] = out
		}
		refLogits[names[m]] = refs
	}

	// Reload artifacts are cloned now, on a quiet system: same weights as
	// the default model, fresh version labels r1..rK.
	reloadArts := make([]*registry.Artifact, cfg.Reloads)
	for i := range reloadArts {
		reloadArts[i] = registry.FromNetwork(fmt.Sprintf("r%d", i+1), nets[0].Clone())
	}

	script := cfg.Script
	if script == nil {
		script = faultinject.Generate(cfg.Seed)
	}
	res := &Result{Config: cfg, Script: script}

	srvCfg := serve.Config{
		Replicas:       cfg.Replicas,
		MaxQueue:       cfg.MaxQueue,
		RequestTimeout: cfg.RequestTimeout,
	}
	var srv *serve.Server
	if cfg.Models == 1 {
		srv = serve.NewWithConfig(nets[0], srvCfg)
	} else {
		specs := make([]serve.ModelSpec, cfg.Models)
		for i, net := range nets {
			specs[i] = serve.ModelSpec{Name: names[i], Net: net, Cfg: srvCfg, Default: i == 0}
		}
		var err error
		srv, err = serve.NewMulti(specs)
		if err != nil {
			return nil, fmt.Errorf("conformance: building multi-model server: %w", err)
		}
	}
	if !srv.Ready() {
		return nil, fmt.Errorf("conformance: server failed warm-up")
	}

	l, err := net0listen()
	if err != nil {
		return nil, err
	}
	baseURL := "http://" + l.Addr().String()
	sctx, stop := context.WithCancel(context.Background())
	drained := make(chan error, 1)
	go func() { //bitflow:go-ok test-harness server lifecycle, joined via the drained channel before Run returns
		drained <- srv.ServeListener(sctx, l, serve.HTTPConfig{ShutdownGrace: 10 * time.Second})
	}()
	// drainErr is idempotent: the happy path consumes the listener's exit
	// status in phase 4, and the deferred cleanup reuses the cached value
	// instead of blocking on a second receive.
	var drainOnce sync.Once
	var drainErr error
	drain := func() error {
		drainOnce.Do(func() {
			stop()
			drainErr = <-drained
		})
		return drainErr
	}
	defer func() {
		_ = drain()
		faultinject.Reset()
	}()

	httpc := &http.Client{Timeout: 20 * time.Second}

	// Arm the schedule only now: warm-up and the reference pass above ran
	// on a quiet system.
	if err := script.Install(); err != nil {
		return nil, fmt.Errorf("conformance: installing script: %w", err)
	}

	// pathFor keeps the single-model run on the legacy route (so the
	// scenarios keep exercising it) and fans multi-model runs across the
	// named routes.
	pathFor := func(name string) string {
		if cfg.Models == 1 {
			return "/infer"
		}
		return "/v1/models/" + name + "/infer"
	}

	// Phase 1: the faulted workload. Each client derives its own request
	// mix from the seed, so the multiset of requests is seed-deterministic
	// even though the interleaving is the scheduler's. Requests round-robin
	// across models by global index, so per-model load is deterministic too.
	outcomes := make([]Outcome, cfg.Requests)
	var wg sync.WaitGroup //bitflow:go-ok test-harness client fan-out; these are HTTP clients, not compute, so exec.Ctx does not apply
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) { //bitflow:go-ok test-harness request loop, joined via wg.Wait below
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(client)))
			for i := client; i < cfg.Requests; i += cfg.Clients {
				name := names[i%cfg.Models]
				outcomes[i] = doRequest(httpc, baseURL, pathFor(name), name, pickKind(rng), rng.Intn(numInputs), inputs)
			}
		}(c)
	}

	// Concurrent with the workload: hot-swap the default model through
	// the reload artifacts. A fault script may fail any swap (that is the
	// point); the ledger of outcomes is evidence for the oracle.
	reloadDone := make(chan struct{})
	go func() { //bitflow:go-ok test-harness reload driver, joined via reloadDone before phase 2
		defer close(reloadDone)
		for _, art := range reloadArts {
			rctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			st, err := srv.ReloadModel(rctx, names[0], art)
			cancel()
			ro := ReloadOutcome{Status: st}
			if err != nil {
				ro.Err = err.Error()
			}
			res.Reloads = append(res.Reloads, ro)
			time.Sleep(2 * time.Millisecond) // let traffic land on the new version
		}
	}()
	wg.Wait()
	<-reloadDone
	res.Outcomes = outcomes

	// Phase 2: disarm and probe. With hooks gone, a full-width wave of
	// concurrent good requests must succeed on every model — this is the
	// "replicas restored after panic" invariant made operational, and
	// after a rolled-back swap it doubles as the capacity-restoration
	// check.
	faultinject.Reset()
	probes := make([]Outcome, cfg.Replicas*cfg.Models)
	for p := 0; p < len(probes); p++ {
		wg.Add(1)
		go func(p int) { //bitflow:go-ok test-harness probe wave, joined via wg.Wait below
			defer wg.Done()
			name := names[p%cfg.Models]
			probes[p] = doRequest(httpc, baseURL, pathFor(name), name, kindGood, p%numInputs, inputs)
		}(p)
	}
	wg.Wait()
	res.Probes = probes

	// Phase 3: quiesce and let the oracle read the terminal state of
	// every model. The gate releases its token in a defer that races the
	// response write, so conservation is polled with a deadline rather
	// than sampled once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res.ModelStates = map[string]serve.Introspection{}
		quiet := true
		for _, name := range names {
			in, err := srv.IntrospectModel(name)
			if err != nil {
				return nil, fmt.Errorf("conformance: introspecting %s: %w", name, err)
			}
			res.ModelStates[name] = in
			if in.GateHeld != 0 || in.GateWaiting != 0 || in.PoolAvailable != in.Replicas {
				quiet = false
			}
		}
		if quiet || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.State = res.ModelStates[names[0]]
	res.ModelSnapshots = map[string]resilience.Snapshot{}
	for _, name := range names {
		res.ModelSnapshots[name] = srv.ModelMetrics(name).Snapshot()
	}
	res.Snapshot = res.ModelSnapshots[names[0]]

	// Phase 4: drain. A wedged worker or an unfinished request shows up
	// here as a shutdown-grace timeout.
	res.DrainErr = drain()

	oracle(res, refLogits)
	return res, nil
}

func net0listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func pickKind(rng *rand.Rand) reqKind {
	switch n := rng.Intn(10); {
	case n < 8:
		return kindGood
	case n == 8:
		return kindShortInput
	default:
		return kindBadJSON
	}
}

// doRequest issues one workload request and decodes what the server said.
func doRequest(httpc *http.Client, baseURL, path, model string, kind reqKind, input int, inputs [][]float32) Outcome {
	o := Outcome{Kind: kind, Model: model, Input: input}
	var body []byte
	switch kind {
	case kindGood:
		body, _ = json.Marshal(serve.InferRequest{Data: inputs[input]})
	case kindShortInput:
		body, _ = json.Marshal(serve.InferRequest{Data: inputs[input][:7]})
	case kindBadJSON:
		body = []byte(`{"data": [1, 2,`)
	}
	resp, err := httpc.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = err
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var out serve.InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			o.Err = fmt.Errorf("decoding 200 body: %w", err)
			return o
		}
		o.Logits = out.Logits
		return o
	}
	var eresp serve.ErrorResponse
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &eresp); err != nil {
		o.Err = fmt.Errorf("non-JSON error body %q: %w", raw, err)
		return o
	}
	o.Code = eresp.Code
	return o
}

// oracle checks every invariant against the evidence in res. It appends
// violations rather than failing fast: a broken schedule usually trips
// several related laws, and seeing all of them localizes the bug.
func oracle(res *Result, refLogits map[string][][]float32) {
	all := append(append([]Outcome{}, res.Outcomes...), res.Probes...)

	// Law 1: exactly-once completion, client edition — every request got
	// one well-formed response. Tallies are kept per model so the
	// conservation laws can be checked against each model's own ledger.
	type tally struct {
		byStatus map[int]int64
		byCode   map[string]int64
	}
	tallies := map[string]*tally{}
	tallyFor := func(model string) *tally {
		tl := tallies[model]
		if tl == nil {
			tl = &tally{byStatus: map[int]int64{}, byCode: map[string]int64{}}
			tallies[model] = tl
		}
		return tl
	}
	for i, o := range all {
		if o.Err != nil {
			res.violatef("request %d: transport error (lost or malformed response): %v", i, o.Err)
			continue
		}
		tl := tallyFor(o.Model)
		tl.byStatus[o.Status]++
		if o.Status != http.StatusOK {
			tl.byCode[o.Code]++
		}
		switch o.Status {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusInternalServerError:
		default:
			res.violatef("request %d: status %d outside the API taxonomy", i, o.Status)
		}
	}

	// Law 2: correctness — a 200 is a claim of a finished, uncorrupted
	// forward pass, so its logits must equal the serial reference of the
	// model it targeted bit for bit, no matter what faults or version
	// swaps ran around it (reload artifacts share weights by design, and
	// a rollback must leave the old weights serving bit-identically).
	for i, o := range all {
		if o.Err != nil || o.Status != http.StatusOK {
			continue
		}
		refs, ok := refLogits[o.Model]
		if !ok {
			res.violatef("request %d: 200 from unknown model %q", i, o.Model)
			continue
		}
		want := refs[o.Input]
		if len(o.Logits) != len(want) {
			res.violatef("request %d: 200 with %d logits, reference has %d", i, len(o.Logits), len(want))
			continue
		}
		for j := range want {
			if o.Logits[j] != want[j] {
				res.violatef("request %d (model %s): logits[%d] = %v, serial reference %v (input %d)",
					i, o.Model, j, o.Logits[j], want[j], o.Input)
				break
			}
		}
	}

	// Law 3: malformed requests are never swallowed by a fault schedule.
	for i, o := range all {
		if o.Err == nil && o.Kind != kindGood && o.Status == http.StatusOK {
			res.violatef("request %d: malformed request (kind %d) returned 200", i, o.Kind)
		}
	}

	// Law 4: recovery — with hooks disarmed, the probe wave must succeed
	// at full replica width.
	for p, o := range res.Probes {
		if o.Err != nil || o.Status != http.StatusOK {
			res.violatef("post-fault probe %d: status %d code %q err %v — replicas not restored",
				p, o.Status, o.Code, o.Err)
		}
	}

	// Law 5: gate-token and replica conservation once quiet — per model,
	// and regardless of how many version swaps (or rollbacks) ran.
	for name, st := range res.ModelStates {
		if st.GateHeld != 0 {
			res.violatef("gate conservation (%s): %d tokens still held after quiesce", name, st.GateHeld)
		}
		if st.GateWaiting != 0 {
			res.violatef("gate conservation (%s): %d waiters still queued after quiesce", name, st.GateWaiting)
		}
		if st.PoolAvailable != st.Replicas {
			res.violatef("replica conservation (%s): %d/%d replicas in the pool after quiesce",
				name, st.PoolAvailable, st.Replicas)
		}
	}

	// Law 6: metrics conservation — every model's ledger must agree with
	// what the clients collectively observed for that model. Shed covers
	// 429s plus the 503 codes (deadline, not_ready) the server counts as
	// load shedding.
	for name, snap := range res.ModelSnapshots {
		tl := tallyFor(name)
		clientTotal := int64(0)
		for _, n := range tl.byStatus {
			clientTotal += n
		}
		if snap.Requests != clientTotal {
			res.violatef("metrics conservation (%s): requests=%d but clients observed %d responses",
				name, snap.Requests, clientTotal)
		}
		if snap.OK != tl.byStatus[http.StatusOK] {
			res.violatef("metrics conservation (%s): ok=%d but clients observed %d 200s",
				name, snap.OK, tl.byStatus[http.StatusOK])
		}
		if snap.BadRequests != tl.byStatus[http.StatusBadRequest] {
			res.violatef("metrics conservation (%s): bad_requests=%d but clients observed %d 400s",
				name, snap.BadRequests, tl.byStatus[http.StatusBadRequest])
		}
		wantShed := tl.byStatus[http.StatusTooManyRequests] + tl.byCode["deadline"] + tl.byCode["not_ready"]
		if snap.Shed != wantShed {
			res.violatef("metrics conservation (%s): shed=%d but clients observed %d (429s + deadline/not_ready 503s)",
				name, snap.Shed, wantShed)
		}
		if snap.QueueDepth != 0 || snap.InFlight != 0 {
			res.violatef("metrics conservation (%s): queue_depth=%d in_flight=%d after quiesce",
				name, snap.QueueDepth, snap.InFlight)
		}
	}

	// Law 7: clean drain — shutdown inside the grace window proves no
	// request was left pending and no worker wedged.
	if res.DrainErr != nil {
		res.violatef("drain: ServeListener returned %v — a request or worker never completed", res.DrainErr)
	}

	// Law 8: reload ledger — every swap attempt terminated in exactly one
	// of the two legal outcomes, a failed attempt carries its structured
	// reason, and the version left serving is the last one that swapped.
	expect := "boot"
	for i, ro := range res.Reloads {
		st := ro.Status
		if st == nil {
			res.violatef("reload %d: no status recorded (error %q) — the swap protocol never ran", i, ro.Err)
			continue
		}
		switch st.Outcome {
		case registry.OutcomeSwapped:
			expect = st.To
		case registry.OutcomeRolledBack:
			if st.Stage == "" || st.Reason == "" {
				res.violatef("reload %d: rollback without a structured stage/reason: %+v", i, st)
			}
			if ro.Err == "" {
				res.violatef("reload %d: rolled back but the swap returned no error", i)
			}
		default:
			res.violatef("reload %d: outcome %q outside the protocol", i, st.Outcome)
		}
	}
	// res.State is the default model — the one the reload driver targets.
	if len(res.Reloads) > 0 && res.State.Version != expect {
		res.violatef("reload ledger: serving version %q, ledger says %q", res.State.Version, expect)
	}
}
