// Command benchmark is the repository's one benchmark: four long
// closed-loop workloads, burst-robust estimators, and per-layer
// attribution measured from outside the packages. See README.md.
//
//	go run ./benchmark --seed N                  every workload: set-up, run, trace
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                             one workload, one JSON result line
//	go run ./benchmark selfcheck                 does the benchmark repeat itself?
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the
// per-run work directory (artifact, inputs, reference logits) and the
// traced run's span dump. It is relative to the checkout root, which is
// the working directory `go run ./benchmark` needs anyway.
const buildDir = ".bench_build"

func main() {
	if err := checkSpecs(); err != nil {
		fatal(err)
	}
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "child" {
		if err := childMain(args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	selfcheck := len(args) > 0 && args[0] == "selfcheck"
	if selfcheck {
		args = args[1:]
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run only this workload and print one JSON result line (driver mode)")
	seed := fs.Uint64("seed", 1, "seed for the model weights and the inputs")
	seconds := fs.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "driver mode: 0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds %v: need at least 1", *seconds))
	}
	var err error
	switch {
	case selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		err = runDriver(w, *seed, *seconds, *trace != 0)
	default:
		err = runAll(*seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// childMain parses the internal `child` invocation: one phase of one
// workload in a fresh process.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	phase := fs.String("phase", "", "gen | setup | run | trace")
	name := fs.String("workload", "", "workload name")
	dir := fs.String("dir", "", "work directory holding the artifact and inputs")
	seed := fs.Uint64("seed", 0, "gen: seed")
	seconds := fs.Float64("seconds", 0, "run: window length; trace: total budget")
	spans := fs.String("spans", "", "trace: file the spans are written to at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *phase == "gen" {
		return generate(w, *seed, *dir)
	}
	return runChild(*phase, w, *dir, *seconds, *spans)
}

// spawn runs one child phase to completion and returns its report (nil
// for gen, which prints none). Children run one at a time, never
// concurrently, and are killed if they outlive their deadline.
func spawn(phase string, w workloadDef, dir string, seed uint64, seconds float64) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+100*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child",
		"--phase", phase, "--workload", w.name, "--dir", dir,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--spans", filepath.Join(buildDir, "spans-"+w.name+".jsonl"))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s child: %w", w.name, phase, err)
	}
	if phase == "gen" {
		return nil, nil
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s %s child: reading its report: %w", w.name, phase, err)
	}
	return &rep, nil
}

// result is one workload's merged child reports.
type result struct {
	attempted, failed int
	firstErr          string
	metrics           map[string]float64
	host              hostInfo
}

// measure generates the workload's artifact and inputs from the seed and
// runs the named phases over them, each in its own fresh process.
func measure(w workloadDef, seed uint64, phases map[string]float64) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := spawn("gen", w, dir, seed, 0); err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	for _, phase := range []string{"setup", "trace", "run"} {
		seconds, ok := phases[phase]
		if !ok {
			continue
		}
		rep, err := spawn(phase, w, dir, seed, seconds)
		if err != nil {
			return nil, err
		}
		res.attempted += rep.Attempted
		res.failed += rep.Failed
		if res.firstErr == "" {
			res.firstErr = rep.FirstErr
		}
		// The run child is last, so where the traced child measured the
		// same run.* diagnostic on its short slices, the real window wins.
		for k, v := range rep.Metrics {
			res.metrics[k] = v
		}
		res.host = rep.Host
	}
	return res, nil
}

// spreadWarn is the run.segment_spread above which a run is flagged.
const spreadWarn = 0.10

// warnings are the noise guards: they flag a disturbed host, they do not
// fail the run.
func warnings(w workloadDef, r *result) []string {
	var out []string
	if r.host.LoadAvg1 > float64(r.host.NProc) {
		out = append(out, fmt.Sprintf("WARNING %s: 1-min load average %.2f at start exceeds nproc %d; timings are suspect",
			w.name, r.host.LoadAvg1, r.host.NProc))
	}
	if s := r.metrics["run.segment_spread"]; s > spreadWarn {
		out = append(out, fmt.Sprintf("WARNING %s: run.segment_spread %.3f > %.2f; the host was disturbed for most of the window",
			w.name, s, spreadWarn))
	}
	return out
}

func hostLine(h hostInfo) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOGC=%d go=%s exec=serial sched=%q cpu=%q host.loadavg1=%.2f",
		h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.Features, h.CPUModel, h.LoadAvg1)
}

// metricValue is one entry of the driver-mode result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver is the one-workload mode the benchmark driver calls: human
// diagnostics on standard error, exactly one JSON object as the last
// line of standard output.
func runDriver(w workloadDef, seed uint64, seconds float64, traced bool) error {
	phases := map[string]float64{"setup": 0, "run": seconds}
	specs := endToEndSpecs
	if traced {
		phases = map[string]float64{"trace": seconds}
		specs = perLayerSpecs()
	}
	r, err := measure(w, seed, phases)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# %s seed=%d seconds=%g %s run.segment_spread=%.4f\n",
		w.name, seed, seconds, hostLine(r.host), r.metrics["run.segment_spread"])
	for _, msg := range warnings(w, r) {
		fmt.Fprintln(os.Stderr, msg)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		out.Metrics[s.Name] = metricValue{Value: r.metrics[s.Name], Unit: s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", w.name, r.failed, r.attempted, r.firstErr)
	}
	return nil
}

// runAll is the one command: every workload, every phase, every metric
// printed by name with its unit.
func runAll(seed uint64, seconds float64) error {
	var failures []string
	for _, w := range workloadDefs {
		r, err := measure(w, seed, map[string]float64{"setup": 0, "run": seconds, "trace": seconds / 3})
		if err != nil {
			return err
		}
		fmt.Printf("== %s seed=%d window=%gs attempted=%d failed=%d\n", w.name, seed, seconds, r.attempted, r.failed)
		fmt.Printf("   %s\n", hostLine(r.host))
		for _, msg := range warnings(w, r) {
			fmt.Println("   " + msg)
		}
		for _, s := range endToEndSpecs {
			fmt.Printf("   %-42s %14.6g %-6s (%s is better, bound %g%%)\n", s.Name, r.metrics[s.Name], s.Unit, s.Better, 100*s.Bound)
		}
		for _, s := range perLayerSpecs() {
			if v, ok := r.metrics[s.Name]; ok {
				fmt.Printf("   %-42s %14.6g %s\n", s.Name, v, s.Unit)
			}
		}
		if r.failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed: %s", w.name, r.failed, r.attempted, r.firstErr))
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// runSelfcheck runs two interleaved sets (A B A B A B) of the same
// binary and fails when, for any workload and end-to-end metric, the two
// sets' medians differ by more than half the metric's bound: the
// benchmark must repeat itself well inside the margin it polices.
func runSelfcheck(seed uint64, seconds float64) error {
	const runsPerSet = 3
	type key struct{ workload, metric, set string }
	values := map[key][]float64{}
	for i := 0; i < 2*runsPerSet; i++ {
		set := "AB"[i%2 : i%2+1]
		for _, w := range workloadDefs {
			r, err := measure(w, seed+uint64(i), map[string]float64{"setup": 0, "run": seconds})
			if err != nil {
				return err
			}
			if r.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %s", w.name, r.failed, r.attempted, r.firstErr)
			}
			for _, msg := range warnings(w, r) {
				fmt.Fprintln(os.Stderr, msg)
			}
			for _, s := range endToEndSpecs {
				k := key{w.name, s.Name, set}
				values[k] = append(values[k], r.metrics[s.Name])
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d (set %s) %s done\n", i+1, 2*runsPerSet, set, w.name)
		}
	}
	fmt.Printf("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | rel. diff | limit |\n|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range workloadDefs {
		for _, s := range endToEndSpecs {
			a, b := values[key{w.name, s.Name, "A"}], values[key{w.name, s.Name, "B"}]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			diff := 0.0
			if am != 0 {
				diff = (bm - am) / am
				if diff < 0 {
					diff = -diff
				}
			}
			fmt.Printf("| %s | %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f%% | %.1f%% |\n",
				w.name, s.Name, s.Unit, am, a1, a3, bm, b1, b3, 100*diff, 100*s.Bound/2)
			if diff > s.Bound/2 {
				over = append(over, fmt.Sprintf("%s/%s %.2f%%", w.name, s.Name, 100*diff))
			}
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("selfcheck: the sets differ by more than half the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
