package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// childReport is the one JSON line a measured child prints last on its
// standard output.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Host      hostInfo           `json:"host"`
}

// Set-up is repeated until it has run setupMinReps times and for
// setupMinTime, but at most setupMaxReps times (the small networks set up
// in 6–20 ms and reach the cap). Reported is the lower quartile of the
// repeats, not their median: set-up allocates and first-touches memory, so
// this host's sub-second bursts lengthen it by half, in stretches of 10–30
// repeats. Across three runs of 100 DupNet set-ups the median read 6.3,
// 7.2 and 9.2 ms, the lower quartile 5.9, 6.1 and 6.6 ms. The median stays
// visible as setup.median_s.
const (
	setupMinReps  = 5
	setupMaxReps  = 100
	setupMinTime  = 2 * time.Second
	setupQuantile = 0.25
)

// runChild executes one phase of one workload in this (fresh) process.
func runChild(phase string, w workloadDef, dir string, seconds float64, spansPath string) error {
	host := readHost()
	d, err := readData(dir)
	if err != nil {
		return err
	}
	var rep *childReport
	switch phase {
	case "setup":
		rep, err = phaseSetup(w, d)
	case "run":
		rep, err = phaseRun(w, d, seconds)
	case "trace":
		rep, err = phaseTrace(w, d, seconds, spansPath)
	default:
		err = fmt.Errorf("unknown phase %q", phase)
	}
	if err != nil {
		return err
	}
	rep.Host = host
	rep.Metrics["host.loadavg1"] = host.LoadAvg1
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// phaseSetup measures only set-up: artifact file to first verified reply,
// repeated in one process with a collection between repeats. The first
// repeat is the cold one.
func phaseSetup(w workloadDef, d *data) (*childReport, error) {
	var times []float64
	t0 := time.Now()
	for len(times) < setupMaxReps && (len(times) < setupMinReps || time.Since(t0) < setupMinTime) {
		inst, err := setUp(w, d, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(times), err)
		}
		times = append(times, inst.setup.Seconds())
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("set-up %d: closing: %w", len(times), err)
		}
		inst = nil
		runtime.GC()
	}
	return &childReport{Attempted: len(times), Metrics: map[string]float64{
		"setup_s":        quantileSorted(sortedCopy(times), setupQuantile),
		"setup.median_s": median(times),
		"setup.cold_s":   times[0],
	}}, nil
}

// phaseRun is the untraced measurement: one set-up, the correctness gate
// and warm-up, a collection, then one window of `seconds`. Its
// resident-set high-water mark is the workload's memory.
func phaseRun(w workloadDef, d *data, seconds float64) (*childReport, error) {
	inst, err := setUp(w, d, nil)
	if err != nil {
		return nil, err
	}
	rate, err := warmUp(inst)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	window := time.Duration(seconds * float64(time.Second))
	res := runWindow(inst, window, int(2*rate*seconds), nil)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	m := windowMetrics(res, window, inst.perOp)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mib"] = rss
	rep := &childReport{Attempted: res.attempted, Failed: res.failed, Metrics: m}
	if res.firstErr != nil {
		rep.FirstErr = res.firstErr.Error()
	}
	return rep, nil
}
