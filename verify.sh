#!/usr/bin/env sh
# Tier-1 verify recipe (see ROADMAP.md). One command, run it before
# every commit:
#
#   ./verify.sh          # full: build + vet + tests + one pass of every
#                        # root benchmark + race on serving layer
#   ./verify.sh -short   # skips VGG-scale builds and training loops
#
# Any file gofmt would change fails the run. go vet's copylocks check
# covers typed-atomic copies. The bitflow-vet suite (rawgo panicpath
# reach) runs inside the test step, in both modes, as
# internal/analysis's TestModuleIsClean. The per-inference allocation
# law is runtime pins in the same step: testing.AllocsPerRun over the
# kernels, the operators, every graph entry point and the /infer
# handler, with kernels, core and graph again under -tags purego below.
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:"
	echo "$unformatted"
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -shuffle=on $* ./... (includes the bitflow-vet gate, TestModuleIsClean)"
go test -shuffle=on "$@" ./...

# go test only compiles the benchmarks; run each root benchmark once so
# one that panics on a changed operator fails here, in both modes.
echo "== go test -run '^\$' -bench . -benchtime 1x ."
go test -run '^$' -bench . -benchtime 1x .

# The pure-Go kernel tier is what every machine without AVX2/AVX-512
# (and every non-amd64 build) executes; on an AVX host only this line
# reaches it through the whole operator and graph stack.
echo "== go test -short -tags purego ./internal/kernels/... ./internal/core/... ./internal/graph/..."
go test -short -tags purego ./internal/kernels/... ./internal/core/... ./internal/graph/...

echo "== go test -race -shuffle=on ./internal/exec/... ./internal/serve/... ./internal/resilience/... ./internal/core/... ./internal/faultinject/... ./internal/registry/..."
go test -race -shuffle=on ./internal/exec/... ./internal/serve/... ./internal/resilience/... ./internal/core/... ./internal/faultinject/... ./internal/registry/...

# InferBatch runs whole lanes on pool workers concurrently, so graph is
# raced too; -short keeps the VGG-scale builds out of the race run.
echo "== go test -race -shuffle=on -short ./internal/graph/..."
go test -race -shuffle=on -short ./internal/graph/...

echo "verify: OK"
