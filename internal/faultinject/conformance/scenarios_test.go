package conformance

// The named fault scenarios from the serving stack's hardening PRs, each
// pinned with a hand-written script so the exact fault replays forever.
// These are the regression net for the recovery code itself: revert the
// panic re-clone, the mid-inference deadline 503, or the swap rollback,
// and the matching test here fails.

import (
	"testing"
	"time"

	"bitflow/internal/faultinject"
)

// TestScenarioPanicRecloneRestoresCapacity injects kernel panics
// mid-inference. The handler must convert each to a
// 500 "panic", re-clone the replica, and leave pool capacity intact — the
// probe wave and the gate/replica conservation laws fail if the re-clone
// (or the recover itself) is reverted.
func TestScenarioPanicRecloneRestoresCapacity(t *testing.T) {
	cfg := Defaults(101)
	cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "graph.layer",
		Action: faultinject.Panic,
		Index:  1, // mid-inference: after c1 has already run
		On:     []int64{1, 3, 5},
	}}}
	res := mustRun(t, cfg)
	if n := countCode(res.Outcomes, "panic"); n == 0 {
		t.Error("no request observed a 500 panic; injection did not land")
	}
	if res.Snapshot.PanicsRecovered == 0 {
		t.Error("panics_recovered is 0 after injected panics")
	}
}

// TestScenarioDeadline503MidInference parks a forward pass at layer 1
// far past the request deadline. The layer-boundary context checks must
// cut the pass and surface a 503 "deadline"; if mid-inference
// cancellation is reverted the stalled requests come back 200 (late) and
// the deadline count here drops to zero.
func TestScenarioDeadline503MidInference(t *testing.T) {
	cfg := Defaults(102)
	cfg.RequestTimeout = 200 * time.Millisecond
	cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "graph.layer",
		Action: faultinject.Stall,
		Index:  1,
		On:     []int64{1, 2},
		For:    5 * time.Second, // far beyond the deadline: only ctx can end it
	}}}
	res := mustRun(t, cfg)
	if n := countCode(res.Outcomes, "deadline"); n == 0 {
		t.Error("no request observed a 503 deadline; mid-inference cancellation is not working")
	}
}

// TestScenarioRunnerCloneFailure makes the recovery path itself fail:
// first a panic corrupts a replica, then its re-clone panics too. The
// handler must fall back to keeping the old replica and continue serving
// — the probe wave fails if the fallback leaks the slot. The subtest is
// named unbatched, like seedRun's level, to keep its test ID stable.
func TestScenarioRunnerCloneFailure(t *testing.T) {
	t.Run("unbatched", func(t *testing.T) {
		cfg := Defaults(105)
		cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{
			{Point: "graph.layer", Action: faultinject.Panic, Index: 1, On: []int64{1}},
			{Point: "serve.clone", Action: faultinject.Panic, Index: faultinject.AnyIndex, Limit: 1},
		}}
		res := mustRun(t, cfg)
		if n := countCode(res.Outcomes, "panic"); n == 0 {
			t.Error("no request observed the 500; the replica panic did not land")
		}
	})
}

// TestScenarioRegistrySwapPanicRollsBack crashes the swap protocol
// right after the atomic pointer flip, under live traffic. The reload
// must roll back with a structured reason, the old version must keep
// serving bit-exact logits (Law 2 on every post-rollback 200), and the
// capacity laws must hold — a leaked candidate replica or a half-flipped
// pointer fails Laws 5/8.
func TestScenarioRegistrySwapPanicRollsBack(t *testing.T) {
	cfg := Defaults(107)
	cfg.Reloads = 2
	cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "registry.swap",
		Action: faultinject.Panic,
		Index:  2, // post-flip: requests may already be pinning the candidate
		On:     []int64{1},
	}}}
	res := mustRun(t, cfg)
	if len(res.Reloads) != 2 {
		t.Fatalf("reload ledger has %d entries, want 2", len(res.Reloads))
	}
	first := res.Reloads[0].Status
	if first == nil || first.Outcome != "rolled_back" || first.Stage != "swap" {
		t.Fatalf("first reload %+v, want a swap-stage rollback", first)
	}
	second := res.Reloads[1].Status
	if second == nil || second.Outcome != "swapped" {
		t.Fatalf("second reload %+v, want a clean swap after the rollback", second)
	}
	if res.State.Version != "r2" {
		t.Fatalf("serving version %q, want r2", res.State.Version)
	}
}

// TestScenarioRegistryVerifyFailRollsBack fails candidate verification
// outright: the pointer must never move, the attempt must report a
// verify-stage rollback, and the original version keeps serving.
func TestScenarioRegistryVerifyFailRollsBack(t *testing.T) {
	cfg := Defaults(108)
	cfg.Reloads = 1
	cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "registry.swap",
		Action: faultinject.Fail,
		Index:  0, // verification stage, before the flip
		On:     []int64{1},
	}}}
	res := mustRun(t, cfg)
	if len(res.Reloads) != 1 {
		t.Fatalf("reload ledger has %d entries, want 1", len(res.Reloads))
	}
	st := res.Reloads[0].Status
	if st == nil || st.Outcome != "rolled_back" || st.Stage != "verify" {
		t.Fatalf("reload %+v, want a verify-stage rollback", st)
	}
	if res.State.Version != "boot" {
		t.Fatalf("serving version %q changed by a rolled-back reload", res.State.Version)
	}
}

// TestScenarioCompressedModelPanicRecovery replays the panic-reclone
// schedule over a kernel-compressed model: seeded graph.layer panics land
// mid-inference on the compressed forward path, recovery re-clones must
// inherit the compression plan, and Law 2 pins every 200 against an
// uncompressed serial reference — a compressed-vs-uncompressed logits
// differential running under fault injection.
func TestScenarioCompressedModelPanicRecovery(t *testing.T) {
	t.Run("unbatched", func(t *testing.T) {
		cfg := Defaults(110)
		cfg.Compressed = true
		cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
			Point:  "graph.layer",
			Action: faultinject.Panic,
			Index:  1, // mid-inference: after the compressed conv has run
			On:     []int64{1, 3, 5},
		}}}
		res := mustRun(t, cfg)
		if res.Snapshot.PanicsRecovered == 0 {
			t.Error("panics_recovered is 0 after injected panics")
		}
	})
}

// TestScenarioQueueFullBurst wedges the only replica and floods the
// server past its one queue slot: the overflow must shed as 429
// "queue_full" while the admission ledger stays conserved.
func TestScenarioQueueFullBurst(t *testing.T) {
	cfg := Defaults(106)
	cfg.Replicas = 1
	cfg.MaxQueue = 1
	cfg.Clients = 8
	cfg.Requests = 16
	cfg.RequestTimeout = 2 * time.Second
	cfg.Script = &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "graph.layer",
		Action: faultinject.Sleep,
		Index:  0,
		On:     []int64{1, 2, 3},
		For:    300 * time.Millisecond,
	}}}
	res := mustRun(t, cfg)
	if n := countCode(res.Outcomes, "queue_full"); n == 0 {
		t.Error("no request observed a 429 queue_full; the burst never saturated admission")
	}
}
