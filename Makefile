GO ?= go

.PHONY: all build test test-short vet fmt fmt-check bench ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One pass of every benchmark: the detector hot path, plus the compile
# pipeline (BenchmarkCompile) and the dependence analysis under it
# (BenchmarkAnalyze).
bench:
	$(GO) test -bench . -benchtime 1x ./rt/ ./internal/checksum/
	$(GO) test -run '^$$' -bench '^(BenchmarkCompile|BenchmarkAnalyze)$$' -benchtime 1x . ./internal/deps/

ci: build vet fmt-check test
