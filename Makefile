# The CI jobs of .github/workflows/ci.yml run these targets, so local runs and
# CI are identical.

GO ?= go

.PHONY: build test race bench bench-smoke lint fmt ci dist-check dist-fault-check mem-check serve-check fleet-fault-check image-sink-check bench-pipeline-check fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment suite (internal/bench) regenerates every paper figure and
# needs more than the default 10m under the race detector on small machines.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=3 -timeout 30m ./internal/fleet/... ./internal/serve/... ./cmd/impressions/...

# Full benchmark suite (paper tables/figures + micro + parallel engine).
bench:
	$(GO) test -run '^$$' -bench . ./...

# One iteration of every benchmark, the CI smoke job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Local mirror of the CI distributed-determinism job: a plan executed by 4
# worker processes (at -j 1, 2, 4 and 8) and merged must be byte-identical to
# a single-process run at -j 1 and at -j 4 (same canonical digest, same
# on-disk bytes). The partitioned leg does it again without a plan file:
# `plan -partition 4` built with -spill at -j 1 and at -j 4, and without
# -spill, must write the same index and the same four fragments, and four
# `worker -fragment` processes plus `merge -index` must print the same digest
# over the same tree.
dist-check:
	@rm -rf /tmp/impressions-dist-check && mkdir -p /tmp/impressions-dist-check
	$(GO) build -o /tmp/impressions-dist-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-dist-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 1 -digest -out single | grep '^image digest:' > single.digest; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 4 -digest -out single-j4 | grep '^image digest:' > single-j4.digest; \
	cmp single.digest single-j4.digest; diff -r single single-j4; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -plan plan.json; \
	pids=""; for s in 0 1 2 3; do ./impressions worker -plan plan.json -shard $$s -j $$((1 << s)) -out merged -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	cmp single.digest merged.digest; diff -r single merged; \
	mkdir -p part part-j4 part-mem; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 1 -partition 4 -spill part -plan part/plan.json; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 4 -partition 4 -spill part-j4 -plan part-j4/plan.json; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 4 -partition 4 -plan part-mem/plan.json; \
	for other in part-j4 part-mem; do cmp part/plan.json $$other/plan.json; for s in 0 1 2 3; do cmp part/plan.json.frag$$s $$other/plan.json.frag$$s; done; done; \
	pids=""; for s in 0 1 2 3; do ./impressions worker -fragment part/plan.json.frag$$s -j $$((1 << s)) -out part-merged -manifest part/manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions merge -index part/plan.json -print-digest part/manifest-*.json > part.digest; \
	cmp single.digest part.digest; diff -r single part-merged; \
	echo "dist-check: OK (digests and trees identical at every -j, from a plan file and from fragments)"

# Local mirror of the CI fault-injection step: plan → 4 workers, one killed
# mid-write (its manifest discarded so the outcome is timing-independent) →
# `merge -partial` names the outstanding shard and its re-run command →
# resuming exactly as instructed → digest and tree byte-identical to the
# single-process run. Then the same faults under `distrun`: a shard-3 worker
# that SIGKILLed itself after 40 files (-fail-after-files; run by hand on
# distrun's own plan and -work, distrun takes no per-shard fault flag) is
# finished by distrun from its journal, and a distrun that is SIGKILLed (it
# alone: its workers die with it) as soon as they have begun to write is run
# again with the same -work — each ending in the single-process digest and tree.
dist-fault-check:
	@rm -rf /tmp/impressions-fault-check && mkdir -p /tmp/impressions-fault-check/work
	$(GO) build -o /tmp/impressions-fault-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-fault-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -digest -out single | grep '^image digest:' > single.digest; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -plan work/plan.json; \
	pids=""; for s in 0 1 2; do ./impressions worker -plan work/plan.json -shard $$s -out merged -manifest work/manifest-$$s.json & pids="$$pids $$!"; done; \
	./impressions worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json & victim=$$!; \
	sleep 0.2; kill -9 $$victim 2>/dev/null || true; \
	for p in $$pids; do wait "$$p"; done; wait $$victim || true; \
	rm -f work/manifest-3.json; \
	./impressions merge -partial -plan work/plan.json -out merged work/manifest-*.json > partial.out; \
	grep -q 'shard 3: missing' partial.out; \
	grep -q 'worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json' partial.out; \
	./impressions worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json; \
	./impressions merge -plan work/plan.json -print-digest work/manifest-*.json > merged.digest; \
	cmp single.digest merged.digest; diff -r single merged; \
	spec="-files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4"; \
	mkdir dwork; ./impressions plan $$spec -plan dwork/plan.json > /dev/null; \
	./impressions worker -plan dwork/plan.json -shard 3 -out dmerged -manifest dwork/manifest-3.json -work dwork -fail-after-files 40 > /dev/null 2>&1 || true; \
	./impressions distrun $$spec -retries 1 -work dwork -out dmerged > distrun.out; \
	grep -q 'worker: shard 3 resumed 40 files from its journal' distrun.out; \
	grep '^image digest:' distrun.out > distrun.digest; cmp single.digest distrun.digest; diff -r single dmerged; \
	./impressions distrun $$spec -work kwork -out kmerged > /dev/null 2>&1 & victim=$$!; \
	for i in $$(seq 1 500); do [ -d kmerged ] && break; sleep 0.01; done; \
	kill -9 $$victim 2>/dev/null || echo "dist-fault-check: distrun had finished before the kill"; wait $$victim || true; \
	./impressions distrun $$spec -work kwork -out kmerged | grep '^image digest:' > killed.digest; \
	cmp single.digest killed.digest; diff -r single kmerged; \
	echo "dist-fault-check: OK (killed worker resumed, by hand and under distrun; SIGKILLed distrun re-run; digests and trees identical)"

# The CI serve-check job: the service proves what the pipeline proves, over
# HTTP, with nothing but the daemon, the CLI and curl. Boot impressionsd on an
# ephemeral port, POST a plan (keeping the headers: a cold request is a cache
# miss), execute every shard with `worker -from` the daemon's shard endpoint,
# merge against the served plan document, and require the digest of
# `impressions … -digest` for the same spec — then require the repeated POST
# to be a cache hit with the same bytes, and SIGTERM to end in a clean stop.
# Service numbers (serve.plan_cold_s, serve.plan_hit_ms,
# serve.shard_fetch_mb_per_s) are bench/pipeline's, under -trace.
serve-check:
	@rm -rf /tmp/impressions-serve-check && mkdir -p /tmp/impressions-serve-check
	$(GO) build -o /tmp/impressions-serve-check/impressionsd ./cmd/impressionsd
	$(GO) build -o /tmp/impressions-serve-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-serve-check; \
	./impressionsd -addr 127.0.0.1:0 -workers 4 > daemon.log 2>&1 & dpid=$$!; \
	trap 'kill -TERM $$dpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^impressionsd: listening on //p' daemon.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "daemon never came up:"; cat daemon.log; exit 1; }; \
	req='{"spec":{"seed":20090225,"num_files":400,"num_dirs":80,"fs_size_bytes":2097152},"shards":3}'; \
	post() { curl -sS --fail -H 'Content-Type: application/json' -d "$$req" -D "$$1.headers" -o "$$1.json" "http://$$addr/v1/plans"; }; \
	post plan; grep -qi '^X-Impressions-Cache: miss' plan.headers; \
	fp=$$(tr -d '\r' < plan.headers | sed -n 's/^X-Impressions-Plan-Fingerprint: //p'); \
	for s in 0 1 2; do ./impressions worker -from "http://$$addr/v1/plans/$$fp/shards/$$s" -out merged -manifest manifest-$$s.json; done; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	./impressions -files 400 -dirs 80 -size 2MB -seed 20090225 -digest | grep '^image digest:' > single.digest; \
	cmp single.digest merged.digest; \
	post again; grep -qi '^X-Impressions-Cache: hit' again.headers; cmp plan.json again.json; \
	kill -TERM $$dpid; wait $$dpid; \
	grep -q 'impressionsd: stopped' daemon.log; \
	echo "serve-check: OK (served shards merge to the single-process digest; repeated plan request is a cache hit)"

# The CI fleet fault-injection job: boot impressionsd as a shard scheduler
# with fast fault detection, join 3 workers — one rigged to SIGKILL itself
# mid-shard — and drive a whole run with `impressions fleetrun`. Its status
# line must report at least one re-queue (the kill was noticed and the shard
# re-leased, resuming from the victim's journal), its digest must be the one
# `impressions … -digest` prints for the same flags, the victim must have
# died and the daemon must have marked it dead. Fleet numbers (fleet.run_s,
# fleet.overhead_s, fleet.requeues) are bench/pipeline's, under -trace.
fleet-fault-check:
	@rm -rf /tmp/impressions-fleet-check && mkdir -p /tmp/impressions-fleet-check/out /tmp/impressions-fleet-check/work
	$(GO) build -o /tmp/impressions-fleet-check/impressionsd ./cmd/impressionsd
	$(GO) build -o /tmp/impressions-fleet-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-fleet-check; \
	./impressionsd -addr 127.0.0.1:0 -workers 4 \
		-heartbeat-interval 150ms -heartbeat-misses 3 -lease-ttl 60s -inline-grace -1s \
		> daemon.log 2>&1 & dpid=$$!; \
	trap 'kill -TERM $$dpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^impressionsd: listening on //p' daemon.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "daemon never came up:"; cat daemon.log; exit 1; }; \
	./impressions worker -join "http://$$addr" -out out -work work -fail-after-files 40 > victim.log 2>&1 & victim=$$!; \
	wpids=""; for w in 1 2; do \
		./impressions worker -join "http://$$addr" -out out -work work > worker-$$w.log 2>&1 & wpids="$$wpids $$!"; \
	done; \
	spec="-files 3000 -dirs 600 -size 6144000 -seed 20090225"; \
	./impressions fleetrun -base "http://$$addr" -shards 8 $$spec > fleetrun.out || { cat fleetrun.out; exit 1; }; cat fleetrun.out; \
	grep -Eq ' [1-9][0-9]* requeue\(s\)' fleetrun.out || { echo "the run saw no re-queue: the retry path was not exercised"; exit 1; }; \
	grep '^image digest:' fleetrun.out > fleet.digest; \
	./impressions $$spec -digest | grep '^image digest:' > single.digest; \
	cmp single.digest fleet.digest; \
	wait $$victim && { echo "victim worker was supposed to be killed mid-shard:"; cat victim.log; exit 1; } || true; \
	for p in $$wpids; do kill -TERM $$p 2>/dev/null || true; done; \
	for p in $$wpids; do wait $$p || true; done; \
	kill -TERM $$dpid; wait $$dpid; \
	grep -q 'impressionsd: stopped' daemon.log; \
	grep -q 'marking dead' daemon.log; \
	echo "fleet-fault-check: OK (killed worker re-queued; digest matches single-process run)"

# Local mirror of the CI image-sink job: the direct tar sink must agree
# with the VFS path (same canonical digest), the archive must be readable
# by system tar, both sinks must write the same bytes at -j 1 and -j 4 (the
# content workers behind them change nothing but the time), the squashfs
# run must print the tar run's digest, and a plan executed by 3 tar-segment
# workers (at -j 1, 2 and 4) and stitched must be byte-identical to the
# single-process tar of the same spec.
image-sink-check:
	@rm -rf /tmp/impressions-image-check && mkdir -p /tmp/impressions-image-check
	$(GO) build -o /tmp/impressions-image-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-image-check; \
	spec="-files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225"; \
	./impressions $$spec -j 1 -format tar -out single.tar -digest | grep '^image digest:' > tar.digest; \
	./impressions $$spec -j 4 -format tar -out single-j4.tar -digest | grep '^image digest:' > tar-j4.digest; \
	cmp single.tar single-j4.tar; cmp tar.digest tar-j4.digest; \
	./impressions $$spec -digest -out vfs | grep '^image digest:' > vfs.digest; \
	cmp tar.digest vfs.digest; \
	tar -tf single.tar > /dev/null; \
	./impressions plan $$spec -shards 3 -plan plan.json; \
	pids=""; for s in 0 1 2; do ./impressions worker -plan plan.json -shard $$s -j $$((1 << s)) -format tar -out seg$$s.tar -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions stitch -plan plan.json -out stitched.tar seg0.tar seg1.tar seg2.tar; \
	cmp single.tar stitched.tar; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	cmp tar.digest merged.digest; \
	./impressions $$spec -j 1 -format squashfs -out image.squashfs -digest | grep '^image digest:' > squashfs.digest; \
	./impressions $$spec -j 4 -format squashfs -out image-j4.squashfs; \
	cmp image.squashfs image-j4.squashfs; cmp tar.digest squashfs.digest; \
	echo "image-sink-check: OK (tar digest matches VFS and squashfs; -j 1 and -j 4 byte-identical; 3-worker stitch byte-identical)"

# Local mirror of the CI bench-pipeline job. bench/pipeline is a Go module of
# its own, so `go vet ./...` and `go test ./...` from the root never see it:
# vet and test it where it lives, then run its smallest end-to-end pass (one
# workload, one repetition, every run still gated on its reference digest)
# so that the referee cannot rot between the PRs that consult it.
bench-pipeline-check:
	cd bench/pipeline && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) run -C bench/pipeline . -scale 0.02 -reps 1 -workload tar_small

# Local mirror of the CI memory-bound job: a 1M-file streamed plan build
# and a 10M-file partitioned (spilled) build must hold peak live heap under
# the same hard cap (see TestStreamedPlanBuildMemoryBound and
# TestPartitionedPlanBuildMemoryBound), and the single-process command must
# replay 300k files into the tar sink and into a directory without holding
# their records (TestGenerateMemoryBound).
mem-check:
	$(GO) test ./internal/distribute ./cmd/impressions -run 'TestStreamedPlanBuildMemoryBound|TestPartitionedPlanBuildMemoryBound|TestGenerateMemoryBound' -v -timeout 15m

# Local mirror of the CI fuzz-smoke job: every fuzz target of the module
# (whatever `go test -list '^Fuzz'` finds: the tar header and stitcher in
# internal/imgfmt, the chunk codec and decoder in internal/fsimage, the plan
# document, shard document and manifest decoders in internal/distribute) for
# FUZZ_TIME each. The seed corpora under testdata/fuzz/ already replay in
# `go test`; this is the ten seconds of new inputs per target on top. The
# minimizer is off (it stalls on the stitcher's tens-of-KiB inputs) and the
# cache of interesting inputs lives outside the tree; a finding is written
# to the package's testdata/fuzz/ and fails the target.
FUZZ_TIME ?= 10s
FUZZ_CACHE ?= /tmp/impressions-fuzz-cache
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target ($(FUZZ_TIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 -parallel 2 -test.fuzzcachedir $(FUZZ_CACHE); \
		done; \
	done; \
	echo "fuzz-smoke: OK"

# lint = the full static gate: stock go vet, gofmt, and the project's
# determinism-contract checkers (cmd/impressionsvet) run as a vet tool so
# findings integrate with go vet's caching and package graph. staticcheck
# and govulncheck run when installed (CI installs pinned versions; local
# runs skip them rather than forcing a download).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) build -o bin/impressionsvet ./cmd/impressionsvet
	$(GO) vet -vettool=$(abspath bin/impressionsvet) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

fmt:
	gofmt -w .

ci: build lint race bench-smoke
