# Developer entry points. `make ci` is the tier-1 gate recorded in
# ROADMAP.md: vet, build, and the full test suite under the race
# detector must all pass before a change lands.

GO ?= go

.PHONY: all build vet perfbench-vet test race bench fuzz-smoke cover run-seqavfd run-fleet-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench/ is a nested module, so the root ./... patterns skip it; vet
# it on its own so an internal API break it depends on fails here, not
# when the benchmark runs. (vet, not build: build would write a binary
# into the tree.)
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Short coverage-guided runs of the native fuzz targets (Go allows one
# -fuzz target per invocation, hence one line each).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParsePavfTable -fuzztime=10s ./internal/pavfio/
	$(GO) test -run=^$$ -fuzz=FuzzParseIntervalTable -fuzztime=10s ./internal/pavfio/
	$(GO) test -run=^$$ -fuzz=FuzzCompilePlan -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzEnvMatrix -fuzztime=10s ./internal/sweep/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeArtifact -fuzztime=10s ./internal/artifact/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFUBState -fuzztime=10s ./internal/artifact/
	$(GO) test -run=^$$ -fuzz=FuzzParseReplicaList -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzMergeExposition -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzParseHardenRequest -fuzztime=10s ./internal/harden/

# Coverage floors on the numerical core (solver, sweep engine, pAVF
# closed forms); see scripts/cover.sh for the gated packages and
# thresholds.
cover:
	GO=$(GO) ./scripts/cover.sh

# End-to-end smoke of the sweep service: generate a design, start
# seqavfd, probe /healthz, run one sweep, then SIGTERM it.
run-seqavfd: build
	./scripts/seqavfd_smoke.sh

# End-to-end smoke of the sweep fleet: 3 replicas with cross-wired
# artifact peers behind seqavf-gateway, a routed sweep, the merged
# /metrics, and a rolling restart that warm-starts over the remote
# artifact tier.
run-fleet-smoke: build
	./scripts/fleet_smoke.sh

ci: vet perfbench-vet build race cover fuzz-smoke
