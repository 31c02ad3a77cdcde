# Development entry points. Every target is a one-liner over the standard
# toolchain, so none of them is load-bearing: CI runs the same commands
# verbatim (see .github/workflows/ci.yml).

GO ?= go
# The staticcheck release CI pins; needs network on first run.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test perfbench-test perfbench-smoke race lint simlint staticcheck doccheck fmt bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module, so the root ./... patterns stop at it.
perfbench-test:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

# Short end-to-end runs of the repository benchmark, one per workload (cold
# and cache-hit reads, edge edits, batches); each fails unless every answer
# is correct and no op failed.
perfbench-smoke:
	bash perfbench/run.sh --workload topk_cold --seed 1 --seconds 3 --trace 0 | tail -1 | jq -e '.correct and .failed == 0'
	bash perfbench/run.sh --workload topk_edits --seed 1 --seconds 3 --trace 0 | tail -1 | jq -e '.correct and .failed == 0'
	bash perfbench/run.sh --workload topk_hot --seed 1 --seconds 3 --trace 0 | tail -1 | jq -e '.correct and .failed == 0'
	bash perfbench/run.sh --workload batch_cold --seed 1 --seconds 3 --trace 0 | tail -1 | jq -e '.correct and .failed == 0'

race:
	$(GO) test -race ./...

# The full lint gate, as CI runs it: formatting, vet, doc coverage, the
# project's own invariant suite, and staticcheck.
lint: fmt simlint doccheck
	$(GO) vet ./...
	$(MAKE) staticcheck

# simlint machine-checks the engine's hot-path invariants (ctxflow,
# poolescape, noalloc, cachekey — see ARCHITECTURE.md "Enforced invariants").
simlint:
	$(GO) run ./cmd/simlint ./...

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

doccheck:
	$(GO) run ./cmd/doccheck

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...
