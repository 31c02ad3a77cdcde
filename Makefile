# Development entry points. Every target is a one-liner over the standard
# toolchain, so none of them is load-bearing: CI runs the same commands
# verbatim (see .github/workflows/ci.yml).

GO ?= go
# The staticcheck release CI pins; needs network on first run.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test perfbench-test race lint simlint staticcheck doccheck fmt bench-smoke bench-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module, so the root ./... patterns stop at it.
perfbench-test:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

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

# The deterministic serving-path workload (CI runs the same profile and
# uploads the report as an artifact).
bench-serve:
	$(GO) run ./cmd/simbench -profile tiny -seed 1 -out bench-serve.json
