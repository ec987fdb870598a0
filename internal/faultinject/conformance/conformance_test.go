package conformance

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"testing"

	"bitflow/internal/faultinject"
)

func countStatus(outs []Outcome, status int) int {
	n := 0
	for _, o := range outs {
		if o.Err == nil && o.Status == status {
			n++
		}
	}
	return n
}

func countCode(outs []Outcome, code string) int {
	n := 0
	for _, o := range outs {
		if o.Err == nil && o.Code == code {
			n++
		}
	}
	return n
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("conformance run failed to execute: %v", err)
	}
	if res.Failed() {
		t.Fatal(res.Report())
	}
	return res
}

// seedRun names a sweep's subtest for one seed. The pool has always run
// these seeds without request coalescing, and the batching=false level
// keeps each seed's test ID the same as when a batched twin ran beside it.
func seedRun(seed int64) string {
	return fmt.Sprintf("seed=%d/batching=false", seed)
}

// pinnedSeeds is TestConformanceSeeds' sweep; -short runs the first two.
// Together the generated scripts arm every injection point, which
// TestPinnedSeedsCoverEveryPoint checks.
var pinnedSeeds = []int64{1, 2, 3, 7, 10, 15}

// TestConformanceSeeds sweeps generated fault schedules. Every schedule
// must leave all invariants intact; a failure prints the seed and the
// exact fault script for replay.
func TestConformanceSeeds(t *testing.T) {
	seeds := pinnedSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(seedRun(seed), func(t *testing.T) {
			mustRun(t, Defaults(seed))
		})
	}
}

// TestPinnedSeedsCoverEveryPoint keeps the pinned sweep from going blind:
// Generate draws points from the registry, so adding or removing a point
// remaps every seed's script, and a point no pinned script arms is one
// the sweep never faults.
func TestPinnedSeedsCoverEveryPoint(t *testing.T) {
	armed := map[string]bool{}
	for _, seed := range pinnedSeeds {
		for _, r := range faultinject.Generate(seed).Rules {
			armed[r.Point] = true
		}
	}
	for _, p := range faultinject.Points() {
		if !armed[p.Name()] {
			t.Errorf("no pinned seed's script arms %s", p.Name())
		}
		delete(armed, p.Name())
	}
	for name := range armed {
		t.Errorf("a pinned script arms %s, which is not a registered point", name)
	}
}

// TestConformanceDeterministic pins the determinism contract: the same
// seed produces the same fault script and the same verdict.
func TestConformanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double run; skipped in -short")
	}
	a := mustRun(t, Defaults(5))
	b := mustRun(t, Defaults(5))
	if a.Script.String() != b.Script.String() {
		t.Errorf("same seed produced different schedules:\n%s\nvs\n%s", a.Script, b.Script)
	}
	if a.Failed() != b.Failed() {
		t.Errorf("same seed produced different verdicts: %v vs %v", a.Failed(), b.Failed())
	}
}

// TestConformanceRotatingSeed runs the schedule selected by
// BITFLOW_CONFORMANCE_SEED — the nightly CI job sets it to the run ID so
// the fleet walks fresh schedules over time, and a failing seed replays
// locally with the same variable.
func TestConformanceRotatingSeed(t *testing.T) {
	env := os.Getenv("BITFLOW_CONFORMANCE_SEED")
	if env == "" {
		t.Skip("BITFLOW_CONFORMANCE_SEED not set (nightly CI sets it; set it locally to replay a seed)")
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("BITFLOW_CONFORMANCE_SEED=%q is not an integer: %v", env, err)
	}
	mustRun(t, Defaults(seed))
}

// TestConformanceMultiModelReload sweeps generated fault schedules over
// a two-model server that hot-swaps the default model's version twice
// while the workload runs. Every conservation law is checked per model;
// the reload ledger law accepts swaps and fault-forced rollbacks alike,
// as long as the serving version matches the ledger afterwards.
func TestConformanceMultiModelReload(t *testing.T) {
	seeds := []int64{1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(seedRun(seed), func(t *testing.T) {
			cfg := Defaults(seed)
			cfg.Models = 2
			cfg.Reloads = 2
			cfg.Requests = 64
			res := mustRun(t, cfg)
			if len(res.Reloads) != 2 {
				t.Fatalf("reload ledger has %d entries, want 2", len(res.Reloads))
			}
			if len(res.ModelSnapshots) != 2 {
				t.Fatalf("per-model snapshots: %d, want 2", len(res.ModelSnapshots))
			}
		})
	}
}

// TestConformanceNoFaults is the control: a nil script must sail through
// with every good request returning 200.
func TestConformanceNoFaults(t *testing.T) {
	cfg := Defaults(11)
	cfg.Script = &faultinject.Script{}
	res := mustRun(t, cfg)
	for i, o := range res.Outcomes {
		if o.Kind == kindGood && o.Status != http.StatusOK {
			t.Errorf("request %d: good request got %d (%s) on a fault-free run", i, o.Status, o.Code)
		}
	}
}
