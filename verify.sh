#!/usr/bin/env sh
# Tier-1 verify recipe (see ROADMAP.md). One command, run it before
# every commit:
#
#   ./verify.sh          # full: build + vet + tests + race on serving layer
#   ./verify.sh -short   # skips VGG-scale builds and training loops
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The analyzer gate runs in BOTH modes: -short must never skip
# bitflow-vet, or analyzer regressions land and only CI catches them.
# This includes the compiler-backed codegen pass (escape analysis +
# check_bce over the hot call graph) and the concurrency-discipline
# passes (atomics, lockorder).
echo "== bitflow-vet ./... (repo invariants: rawgo threadsint hotalloc panicpath actuate codegen atomics lockorder ...)"
go run ./cmd/bitflow-vet ./...

echo "== go test -shuffle=on $* ./..."
go test -shuffle=on "$@" ./...

# The pure-Go kernel tier is what every machine without AVX2/AVX-512
# (and every non-amd64 build) executes; on an AVX host only this line
# reaches it through the whole operator and graph stack.
echo "== go test -short -tags purego ./internal/kernels/... ./internal/core/... ./internal/graph/..."
go test -short -tags purego ./internal/kernels/... ./internal/core/... ./internal/graph/...

echo "== go test -race -shuffle=on ./internal/exec/... ./internal/serve/... ./internal/resilience/... ./internal/batch/... ./internal/core/... ./internal/faultinject/... ./internal/registry/... ./internal/control/..."
go test -race -shuffle=on ./internal/exec/... ./internal/serve/... ./internal/resilience/... ./internal/batch/... ./internal/core/... ./internal/faultinject/... ./internal/registry/... ./internal/control/...

# InferBatch runs whole lanes on pool workers concurrently, so graph is
# raced too; -short keeps the VGG-scale builds out of the race run.
echo "== go test -race -shuffle=on -short ./internal/graph/..."
go test -race -shuffle=on -short ./internal/graph/...

echo "verify: OK"
