GO ?= go

.PHONY: build test vet fmt-check verify smoke-examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# verify is the extended gate: the gofmt check, whole-repo vet and
# race-enabled tests (every golden, determinism and fuzz-corpus replay
# included), the metric documentation check, a short fresh-input run of the
# hostagg wire fuzzer, the perfbench module (its own go.mod keeps it out of
# ./...), and an every-example smoke run.
verify: fmt-check vet
	$(GO) test -race ./...
	$(GO) run ./tools/obscheck
	$(GO) test -fuzz=FuzzHandle -fuzztime=10s -run FuzzHandle ./internal/hostagg/
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) smoke-examples

# smoke-examples builds every example and runs each briefly; they all
# self-terminate, so a hang (caught by timeout) or nonzero exit fails.
smoke-examples:
	@mkdir -p .smoke-bin
	@set -e; for d in examples/*/; do \
		name=$$(basename $$d); \
		$(GO) build -o .smoke-bin/$$name ./$$d; \
		timeout 120 ./.smoke-bin/$$name > /dev/null || { echo "smoke-examples: $$name failed"; exit 1; }; \
		echo "smoke-examples: $$name ok"; \
	done
	@rm -rf .smoke-bin
