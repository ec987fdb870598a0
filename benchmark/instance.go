package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
	"bitflow/internal/tensor"
)

// data is what a measured child receives: the artifact path and the
// pre-generated inputs with their reference logits.
type data struct {
	artifact string
	inputs   []*tensor.Tensor
	refs     [][]float32
}

func readData(dir string) (*data, error) {
	inputs, err := readTensors(filepath.Join(dir, inputsFile))
	if err != nil {
		return nil, err
	}
	refs, err := readLogits(filepath.Join(dir, refFile))
	if err != nil {
		return nil, err
	}
	if len(refs) != len(inputs) {
		return nil, fmt.Errorf("%d reference logit rows for %d inputs", len(refs), len(inputs))
	}
	return &data{artifact: filepath.Join(dir, artifactFile), inputs: inputs, refs: refs}, nil
}

// instance is one workload set up and ready to serve calls.
type instance struct {
	// perOp is the images one call completes; callers the closed-loop
	// callers the workload runs (1 in process, 2 over HTTP); distinct the
	// number of different calls (inputs, or batches of 8) rotated through.
	perOp, callers, distinct int
	// call runs operation i for the given caller and checks the reply
	// against the reference logits; an error is a failed operation.
	call func(caller, i int) error
	// close releases the instance (stops the server, closes connections).
	close func() error
	// setup is the artifact-file → first-verified-reply time, split holds
	// its parts in ms under their per-layer metric names.
	setup time.Duration
	split map[string]float64

	// Handles for the traced child only.
	worker *graph.Network // in-process: the network the calls run on
	httpx  *httpInstance  // HTTP: the server and its clients
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setUp brings workload w from its artifact file to its first verified
// reply. wrap, when non-nil, is the traced child's middleware around the
// serve handler (HTTP workload only).
func setUp(w workloadDef, d *data, wrap func(http.Handler) http.Handler) (*instance, error) {
	if w.http {
		return setUpHTTP(w, d, wrap)
	}
	return setUpInProcess(w, d)
}

func setUpInProcess(w workloadDef, d *data) (*instance, error) {
	t0 := time.Now()
	net, err := loadNetwork(d.artifact, sched.Detect())
	if err != nil {
		return nil, err
	}
	net.SetExec(exec.Serial())
	t1 := time.Now()
	worker := net.Clone() // one clone per caller, as serving replicas are made
	t2 := time.Now()
	worker.EnsureBatch(w.batch)
	t3 := time.Now()

	inst := &instance{perOp: w.batch, callers: 1, distinct: len(d.inputs) / w.batch, worker: worker,
		close: func() error { return nil }}
	if w.batch == 1 {
		inst.call = func(_, i int) error {
			if got := worker.Infer(d.inputs[i]); !bitEqual(got, d.refs[i]) {
				return fmt.Errorf("input %d: logits differ from the reference", i)
			}
			return nil
		}
	} else {
		inst.call = func(_, i int) error {
			lo := i * w.batch
			outs, err := worker.InferBatch(d.inputs[lo : lo+w.batch])
			if err != nil {
				return err
			}
			for j, got := range outs {
				if !bitEqual(got, d.refs[lo+j]) {
					return fmt.Errorf("batch %d item %d: logits differ from the reference", i, j)
				}
			}
			return nil
		}
	}
	if err := inst.call(0, 0); err != nil {
		return nil, fmt.Errorf("first inference: %w", err)
	}
	t4 := time.Now()
	inst.setup = t4.Sub(t0)
	inst.split = map[string]float64{
		"graph.load_ms":         ms(t1.Sub(t0)),
		"graph.clone_ms":        ms(t2.Sub(t1)),
		"graph.ensure_batch_ms": ms(t3.Sub(t2)),
		"graph.first_infer_ms":  ms(t4.Sub(t3)),
	}
	return inst, nil
}

// httpClients is the HTTP workload's closed-loop client count: one per
// core of this host, each on its own keep-alive connection.
const httpClients = 2

// opHeader carries the client's operation id to the traced middleware.
const opHeader = "X-Bench-Op"

type httpInstance struct {
	srv     *serve.Server
	net     *graph.Network
	url     string
	clients []*http.Client
	bodies  [][]byte
	refs    [][]float32
}

// httpReply is what a client learns from one round trip.
type httpReply struct {
	elapsed  time.Duration // the response's "elapsed": server-side inference
	reqBytes int
	resBytes int
}

// post sends body i on the caller's connection, decodes the reply and
// checks status and logits.
func (h *httpInstance) post(caller, i int, op int64) (httpReply, error) {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(h.bodies[i]))
	if err != nil {
		return httpReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := h.clients[caller].Do(req)
	if err != nil {
		return httpReply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return httpReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return httpReply{}, fmt.Errorf("input %d: HTTP %d: %.120s", i, resp.StatusCode, raw)
	}
	var out serve.InferResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return httpReply{}, fmt.Errorf("input %d: decoding reply: %w", i, err)
	}
	if !bitEqual(out.Logits, h.refs[i]) {
		return httpReply{}, fmt.Errorf("input %d: logits differ from the reference", i)
	}
	elapsed, err := time.ParseDuration(out.Elapsed)
	if err != nil {
		return httpReply{}, fmt.Errorf("input %d: reply elapsed %q: %w", i, out.Elapsed, err)
	}
	return httpReply{elapsed: elapsed, reqBytes: len(h.bodies[i]), resBytes: len(raw)}, nil
}

func setUpHTTP(w workloadDef, d *data, wrap func(http.Handler) http.Handler) (*instance, error) {
	// Client-side preparation, not part of the server's set-up time.
	bodies := make([][]byte, len(d.inputs))
	for i, x := range d.inputs {
		b, err := json.Marshal(serve.InferRequest{Data: x.Data})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	clients := make([]*http.Client, httpClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	}

	t0 := time.Now()
	art, err := registry.LoadArtifact(d.artifact, "", sched.Detect())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	srv := serve.NewWithConfig(art.Net, serve.Config{Replicas: 1, Exec: exec.Serial()})
	if !srv.Ready() {
		return nil, fmt.Errorf("serve: warm-up failed, server not ready")
	}
	t2 := time.Now()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	stop := serveOn(srv, l, wrap)
	h := &httpInstance{srv: srv, net: art.Net, url: "http://" + l.Addr().String() + "/infer",
		clients: clients, bodies: bodies, refs: d.refs}
	inst := &instance{perOp: 1, callers: httpClients, distinct: len(d.inputs), httpx: h,
		call: func(caller, i int) error {
			_, err := h.post(caller, i, 0)
			return err
		},
		close: func() error {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
			return stop()
		},
	}
	if err := inst.call(0, 0); err != nil {
		_ = inst.close() // the first request's failure is the error worth reporting
		return nil, fmt.Errorf("first request: %w", err)
	}
	t3 := time.Now()
	inst.setup = t3.Sub(t0)
	inst.split = map[string]float64{
		"registry.load_artifact_ms": ms(t1.Sub(t0)),
		"serve.new_ms":              ms(t2.Sub(t1)),
		"graph.first_infer_ms":      ms(t3.Sub(t2)),
	}
	return inst, nil
}

// serveOn starts serving srv on l and returns the function that stops it
// and waits until the serving goroutine has ended. Untraced runs use the
// production lifecycle (ServeListener, graceful drain); a traced run
// needs its middleware between the listener and Server.Handler, so it
// runs the same handler tree under its own http.Server.
func serveOn(srv *serve.Server, l net.Listener, wrap func(http.Handler) http.Handler) (stop func() error) {
	served := make(chan error, 1)
	if wrap == nil {
		ctx, cancel := context.WithCancel(context.Background())
		//bitflow:go-ok benchmark-owned server lifecycle; stop() cancels it and waits on the served channel
		go func() { served <- srv.ServeListener(ctx, l, serve.HTTPConfig{}) }()
		return func() error {
			cancel()
			return <-served
		}
	}
	hs := &http.Server{Handler: wrap(srv.Handler()), ReadTimeout: 30 * time.Second}
	//bitflow:go-ok benchmark-owned traced server lifecycle; stop() shuts it down and waits on the served channel
	go func() { served <- hs.Serve(l) }()
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		return err
	}
}
