package main

import (
	"fmt"
	"regexp"
	"strings"
)

// metricSpec names one metric the benchmark prints. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before
// a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEndSpecs are the four metrics a user of the system sees, reported
// for every workload. One bound per metric must serve every workload and
// every state of the host. In quiet phases ten seeds spread 1–3.4% on the
// two rates; but this 2-core VM has phases, minutes to hours long, in
// which whole runs of identical code are uniformly 10–30% slower (ten
// seeds then spread 10–20% on VGG-16 and HTTP; tables in README.md), and
// two sets of runs minutes apart can sit in different phases. So the rates
// and setup_s get the widest bound allowed, 25%. peak_rss_mib repeats
// within 1% on VGG-16 (85 MiB), within 3% on the 13 MiB tinyvgg_b8
// process, and gets 10%.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"images_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// layerNames lists, per network, the executed layers as InferTimed names
// them with '+' replaced by '_' ("input" is the binarize+pack stage).
var layerNames = map[string][]string{
	"VGG16": {"input", "conv1.1", "conv1.2_pool1", "conv2.1", "conv2.2_pool2",
		"conv3.1", "conv3.2", "conv3.3_pool3", "conv4.1", "conv4.2", "conv4.3_pool4",
		"conv5.1", "conv5.2", "conv5.3_pool5", "fc6", "fc7", "fc8"},
	"TinyVGG": {"input", "conv1.1", "conv1.2_pool1", "conv2.1_pool2", "fc1", "fc2"},
	"DupNet":  {"input", "c1", "c2_p1", "c3", "c4_p2", "fc"},
}

// perLayerSpecs is the full per-layer metric list, in print order. A
// traced run reports every one of them for every workload; a metric that
// does not apply to a workload (another network's layer, serve.* on an
// in-process workload, a tail percentile without enough samples) reads 0.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{Name: name, Unit: unit, Better: better}) }

	add("graph.infer_ms", "ms", "lower")
	seen := map[string]bool{}
	for _, net := range []string{"VGG16", "TinyVGG", "DupNet"} {
		for _, l := range layerNames[net] {
			if !seen[l] {
				seen[l] = true
				add(layerMetric(l), "ms", "lower")
			}
		}
	}
	for _, k := range []string{"pack", "conv", "conv_pool", "fc", "pool"} {
		add("graph."+k+"_ms", "ms", "lower")
	}
	add("graph.untimed_share", "ratio", "lower")
	add("graph.layers", "count", "lower")
	add("graph.fused_pairs", "count", "higher")
	add("graph.compressed_layers", "count", "higher")
	add("graph.activation_mib", "MiB", "lower")
	add("graph.packed_weight_mib", "MiB", "lower")
	add("graph.artifact_mib", "MiB", "lower")
	add("graph.fusion_gain", "ratio", "higher")
	add("graph.compress_gain", "ratio", "higher")
	add("graph.batch_gain", "ratio", "higher")
	add("graph.load_ms", "ms", "lower")
	add("graph.clone_ms", "ms", "lower")
	add("graph.ensure_batch_ms", "ms", "lower")
	add("graph.first_infer_ms", "ms", "lower")

	add("bitpack.pack_input_us", "us", "lower")
	add("bitpack.pack_mb_per_s", "MB/s", "higher")

	add("kernels.xor_words_per_image", "count", "lower")
	add("kernels.xor_words_effective_per_image", "count", "lower")
	add("kernels.xorpop_l1_words_per_ns", "1/ns", "higher")
	add("kernels.xorpop_rows_l1_words_per_ns", "1/ns", "higher")
	add("kernels.xorpop_batch_l1_words_per_ns", "1/ns", "higher")
	add("kernels.compressed_accum_words_per_ns", "1/ns", "higher")

	add("core.conv_words_per_ns", "1/ns", "higher")
	add("core.fc_words_per_ns", "1/ns", "higher")
	add("core.conv_peak_fraction", "ratio", "higher")

	add("exec.threads", "count", "higher")

	add("serve.client_rtt_ms", "ms", "lower")
	add("serve.handler_ms", "ms", "lower")
	add("serve.infer_ms", "ms", "lower")
	add("serve.handler_self_c1_ms", "ms", "lower")
	add("serve.handler_self_c2_ms", "ms", "lower")
	add("resilience.gate_wait_ms", "ms", "lower")
	add("serve.transport_ms", "ms", "lower")
	add("serve.request_bytes", "count", "lower")
	add("serve.response_bytes", "count", "lower")
	add("serve.requests", "count", "higher")
	add("serve.ok", "count", "higher")
	add("serve.shed", "count", "lower")
	add("serve.bad_requests", "count", "lower")
	add("serve.panics_recovered", "count", "lower")
	add("resilience.gate_held_after", "count", "lower")
	add("registry.load_artifact_ms", "ms", "lower")
	add("serve.new_ms", "ms", "lower")

	add("run.samples", "count", "higher")
	add("run.mean_images_per_s", "1/s", "higher")
	add("run.segment_spread", "ratio", "lower")
	add("run.latency_all_p50_ms", "ms", "lower")
	add("run.latency_p90_ms", "ms", "lower")
	add("run.latency_p99_ms", "ms", "lower")
	add("run.allocs_per_op", "count", "lower")
	add("run.alloc_bytes_per_op", "count", "lower")
	add("run.gc_cycles", "count", "lower")
	add("trace.overhead_share", "ratio", "lower")
	add("setup.cold_s", "s", "lower")
	add("setup.median_s", "s", "lower")
	add("host.loadavg1", "count", "lower")
	return out
}

// layerMetric names the per-layer time metric of one executed layer.
func layerMetric(layer string) string {
	return "graph.layer." + strings.ReplaceAll(layer, "+", "_") + ".ms"
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal workload or metric name: it
// starts with a letter or digit and holds at most 64 of [A-Za-z0-9_.-].
func validName(s string) bool { return nameRE.MatchString(s) }

// checkSpecs validates every name once and rejects duplicates, so a typo
// in the tables above fails every run and the unit tests.
func checkSpecs() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !validName(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloadDefs {
		if err := check("workload", w.name); err != nil {
			return err
		}
	}
	for _, m := range endToEndSpecs {
		if err := check("end-to-end metric", m.Name); err != nil {
			return err
		}
	}
	for _, m := range perLayerSpecs() {
		if err := check("per-layer metric", m.Name); err != nil {
			return err
		}
	}
	return nil
}
