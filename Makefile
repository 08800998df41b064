# The CI jobs of .github/workflows/ci.yml run these targets, so local runs and
# CI are identical.

GO ?= go

.PHONY: build test race bench bench-smoke lint fmt ci dist-check dist-fault-check mem-check serve-check fleet-fault-check image-sink-check bench-pipeline-check fuzz-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment suite (internal/bench) regenerates every paper figure and
# needs more than the default 10m under the race detector on small machines.
# The supervisor packages, the fragment replay, the plan build's sealer,
# the metadata pass (its skeleton is built beside the size and extension
# phases), the body engine behind the archive sinks (its workers write at
# offsets, or wait their turn in order) and its directory destination (the
# VFS writer's in-order collect, and the shard journal sealed from it) run
# three more times: a race there shows only on some interleavings; the
# archive sinks' line adds about 2 min 15 s on 2 cores. The CI test job
# runs this.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=3 -timeout 30m ./internal/fleet/... ./internal/serve/... ./cmd/impressions/...
	$(GO) test -race -count=3 -timeout 30m -run 'FragmentSource|FragmentsCarry' ./internal/distribute
	$(GO) test -race -count=3 -timeout 30m -run 'WriteFragments|PlanBuild|ChunkSealer' ./internal/distribute ./internal/fsimage
	$(GO) test -race -count=3 -timeout 30m -run 'ResolveMetadata|Generate|Golden' ./internal/core
	$(GO) test -race -count=3 -timeout 30m -run 'Identical|Surface|Sink' ./internal/imgfmt
	$(GO) test -race -count=3 -timeout 30m -run 'MaterializeSink|VFS|Journal' ./internal/fsimage ./internal/distribute

# Full benchmark suite (paper tables/figures + micro + parallel engine).
bench:
	$(GO) test -run '^$$' -bench . ./...

# One iteration of every benchmark, the CI smoke job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The CI distributed-determinism job runs this and dist-fault-check: a plan executed by 4
# worker processes (at -j 1, 2, 4 and 8) and merged must be byte-identical to
# a single-process run at -j 1 and at -j 4 (same canonical digest, same
# on-disk bytes). The plan — a fragment index and its fragments — is built
# at 1, 4 and 8 shards, each at -j 1, 2 and 4, where its chunks are sealed
# a piece at a time by the goroutine routing the records and none, one and
# three more, through a ring of one, eight and sixteen pieces, each on the
# heap and with -spill (whose placement runs one worker per depth level above -j 1),
# and must not move a byte: the index and every fragment are compared with
# the heap build at -j 1 of the same shard count (the ring, and so which
# goroutine formats and writes each piece, differs at each). The 4-shard plan goes on: the
# workers read their fragments through the index, and `merge -plan` of the
# index prints the digest. Last,
# `distrun` of the same spec (4 worker processes under the in-process
# scheduler) must print the same digest and write the same tree, at the
# default -j and at -j 1, the configuration the distrun_k2 benchmark runs.
# That spec requests no size, so its sizes are the first pool drawn; the
# same builds of SIZED_SPEC (dir_small's spec at 30k files, whose
# resolver oversamples twice) hold the resolved path to the same identity.
SIZED_SPEC = -files 30000 -dirs 3000 -size 34406400 -size-mu 6.9 -size-sigma 0.5 -seed 20090225
PLAN_SPEC = -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225

dist-check:
	@rm -rf /tmp/impressions-dist-check && mkdir -p /tmp/impressions-dist-check
	$(GO) build -o /tmp/impressions-dist-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-dist-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 1 -digest -out single | grep '^image digest:' > single.digest; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -j 4 -digest -out single-j4 | grep '^image digest:' > single-j4.digest; \
	cmp single.digest single-j4.digest; diff -r single single-j4; \
	for spec in plan sized; do \
		if [ $$spec = plan ]; then args="$(PLAN_SPEC)"; else args="$(SIZED_SPEC)"; fi; \
		for k in 1 4 8; do \
			for j in 1 2 4; do \
				d=$$spec-k$$k-j$$j; mkdir -p $$d $$d-spill; \
				./impressions plan $$args -j $$j -shards $$k -plan $$d/plan.json > /dev/null; \
				./impressions plan $$args -j $$j -shards $$k -spill $$d-spill -plan $$d-spill/plan.json > /dev/null; \
				for other in $$d $$d-spill; do \
					cmp $$spec-k$$k-j1/plan.json $$other/plan.json; \
					s=0; while [ $$s -lt $$k ]; do cmp $$spec-k$$k-j1/plan.json.frag$$s $$other/plan.json.frag$$s; s=$$((s + 1)); done; \
				done; \
			done; \
		done; \
	done; \
	mv plan-k4-j1 plan; \
	pids=""; for s in 0 1 2 3; do ./impressions worker -plan plan/plan.json -shard $$s -j $$((1 << s)) -out merged -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions merge -plan plan/plan.json -print-digest manifest-*.json > merged.digest; \
	cmp single.digest merged.digest; diff -r single merged; \
	./impressions distrun -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -out distrun-out | grep '^image digest:' > distrun.digest; \
	cmp single.digest distrun.digest; diff -r single distrun-out; \
	./impressions distrun -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -j 1 -out distrun-j1 | grep '^image digest:' > distrun-j1.digest; \
	cmp single.digest distrun-j1.digest; diff -r single distrun-j1; \
	echo "dist-check: OK (index and fragments identical at 1, 4 and 8 shards at -j 1, 2 and 4, on the heap and spilled, with and without a size; merge and distrun digests and trees identical, distrun at -j 1 too)"

# The fault-injection half of the CI distributed-determinism job: plan → 4 workers, one killed
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
# miss) and save the answer, the plan's fragment index, as <fp>; execute every
# shard with `worker -from` the daemon's shard endpoint and save the shard
# next to the index as <fp>.frag<i>; `merge -plan <fp>` must print the digest
# of `impressions … -digest` for the same spec — then require the repeated
# POST to be a cache hit with the same bytes, and SIGTERM to end in a clean
# stop.
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
	post() { curl -sS --fail -H 'Content-Type: application/json' -d "$$req" -D "$$1.headers" -o "$$1.body" "http://$$addr/v1/plans"; }; \
	post plan; grep -qi '^X-Impressions-Cache: miss' plan.headers; \
	fp=$$(tr -d '\r' < plan.headers | sed -n 's/^X-Impressions-Plan-Fingerprint: //p'); \
	mv plan.body "$$fp"; \
	for s in 0 1 2; do \
		curl -sS --fail -o "$$fp.frag$$s" "http://$$addr/v1/plans/$$fp/shards/$$s"; \
		./impressions worker -from "http://$$addr/v1/plans/$$fp/shards/$$s" -out merged -manifest manifest-$$s.json; \
	done; \
	./impressions merge -plan "$$fp" -print-digest manifest-*.json > merged.digest; \
	./impressions -files 400 -dirs 80 -size 2MB -seed 20090225 -digest | grep '^image digest:' > single.digest; \
	cmp single.digest merged.digest; \
	post again; grep -qi '^X-Impressions-Cache: hit' again.headers; cmp "$$fp" again.body; \
	kill -TERM $$dpid; wait $$dpid; \
	grep -q 'impressionsd: stopped' daemon.log; \
	echo "serve-check: OK (the served index and shards merge to the single-process digest; repeated plan request is a cache hit)"

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
# with the VFS path (same canonical digest, which the VFS writer folds
# during its write at -j 1 and at -j 4), the archive must be readable
# by system tar and directory-local (each directory's files one run of
# entries), both sinks must write the same bytes at -j 1 and -j 4 (the
# content workers behind them change nothing but the time), a tar written
# onto a FIFO (which the sinks write in order, not at offsets) must be the
# same bytes while a squashfs image, whose superblock is patched last, must
# fail there with its seek error before the FIFO's reader gets a byte, the squashfs
# run must print the tar run's digest, and a plan executed by 3 tar-segment
# workers (at -j 1, 2 and 4) and stitched must be byte-identical to the
# single-process tar of the same spec. A stitch handed its segments in the
# wrong order must fail and leave no archive behind. Aging the simulated disk
# (-layout 0.8) must not move the digest, since layout never moves a byte,
# and 20,000 files of ~1.1 KB aged toward 0.9 must generate (a disk sized from
# the requested bytes used to run out of blocks there).
image-sink-check:
	@rm -rf /tmp/impressions-image-check && mkdir -p /tmp/impressions-image-check
	$(GO) build -o /tmp/impressions-image-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-image-check; \
	spec="-files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225"; \
	./impressions $$spec -j 1 -format tar -out single.tar -digest | grep '^image digest:' > tar.digest; \
	./impressions $$spec -j 4 -format tar -out single-j4.tar -digest | grep '^image digest:' > tar-j4.digest; \
	cmp single.tar single-j4.tar; cmp tar.digest tar-j4.digest; \
	mkfifo p; cat p > fifo.tar & reader=$$!; ./impressions $$spec -j 4 -format tar -out p > /dev/null; wait $$reader; cmp single.tar fifo.tar; \
	cat p > fifo.squashfs & reader=$$!; \
	if ./impressions $$spec -j 4 -format squashfs -out p > /dev/null 2> fifo-squashfs.err; then \
		echo "image-sink-check: a squashfs image onto a FIFO succeeded"; exit 1; fi; \
	wait $$reader; grep -q 'squashfs needs a destination that can seek: .*illegal seek' fifo-squashfs.err; \
	if [ -s fifo.squashfs ]; then echo "image-sink-check: a squashfs run wrote $$(wc -c < fifo.squashfs) bytes onto a FIFO before it failed"; exit 1; fi; \
	for j in 1 4; do ./impressions $$spec -j $$j -digest -out vfs-j$$j | grep '^image digest:' > vfs-j$$j.digest; cmp tar.digest vfs-j$$j.digest; done; \
	./impressions $$spec -layout 0.8 -digest | grep '^image digest:' > layout.digest; cmp tar.digest layout.digest; \
	./impressions -files 20000 -dirs 2000 -size 22MB -size-mu 6.9 -size-sigma 0.5 -layout 0.9 > /dev/null; \
	tar -tf single.tar | grep -v '/$$' | sed 's#/[^/]*$$##; t; s#.*#.#' | uniq | sort | uniq -d > split-dirs; \
	if [ -s split-dirs ]; then echo "image-sink-check: the tar splits the files of these directories:"; cat split-dirs; exit 1; fi; \
	./impressions plan $$spec -shards 3 -plan plan.json; \
	pids=""; for s in 0 1 2; do ./impressions worker -plan plan.json -shard $$s -j $$((1 << s)) -format tar -out seg$$s.tar -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions stitch -plan plan.json -out stitched.tar seg0.tar seg1.tar seg2.tar; \
	cmp single.tar stitched.tar; \
	if ./impressions stitch -plan plan.json -out swapped.tar seg1.tar seg0.tar seg2.tar 2> swapped.err; then \
		echo "image-sink-check: a stitch of swapped segments succeeded"; exit 1; fi; \
	test ! -e swapped.tar; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	cmp tar.digest merged.digest; \
	./impressions $$spec -j 1 -format squashfs -out image.squashfs -digest | grep '^image digest:' > squashfs.digest; \
	./impressions $$spec -j 4 -format squashfs -out image-j4.squashfs; \
	cmp image.squashfs image-j4.squashfs; cmp tar.digest squashfs.digest; \
	echo "image-sink-check: OK (tar digest matches VFS at -j 1 and -j 4, squashfs and -layout 0.8; small files age toward -layout 0.9; tar directory-local; -j 1, -j 4 and a FIFO byte-identical, squashfs onto a FIFO refused; 3-worker stitch byte-identical; swapped segments refused)"

# Local mirror of the CI bench-pipeline job. bench/pipeline is a Go module of
# its own, so `go vet ./...` and `go test ./...` from the root never see it:
# vet and test it where it lives, then run its smallest end-to-end pass (one
# workload, one repetition, every run still gated on its reference digest)
# so that the referee cannot rot between the PRs that consult it.
bench-pipeline-check:
	cd bench/pipeline && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) run -C bench/pipeline . -scale 0.02 -reps 1 -workload tar_small

# Local mirror of the CI memory-bound job: a plan build (spilled, 8
# fragments) must peak at the same live heap at 250k and at 1M files
# (TestPartitionedPlanBuildMemoryBound), the merge of a 300k-file plan as 8
# fragments must hold none of its file records and no tree per fragment
# (TestMergeMemoryBound), and the single-process command must
# replay N and 4N files into the tar sink and into a directory at the same
# heap, and grow by no more per file than its metadata pass did
# (TestGenerateMemoryBound), and writing a 100k-file plan's fragments at
# -j 2 must allocate no more than 16 MB, each record buffer once, at K = 8
# and at K = 32 (TestWriteFragmentsAllocatesOnce). Tier-1 runs the same
# four tests.
mem-check:
	$(GO) test ./internal/distribute ./cmd/impressions -run 'TestPartitionedPlanBuildMemoryBound|TestMergeMemoryBound|TestGenerateMemoryBound|TestWriteFragmentsAllocatesOnce' -v -timeout 15m

# Local mirror of the CI fuzz-smoke job: every fuzz target of the module
# (whatever `go test -list '^Fuzz'` finds: the tar header, stitcher and
# squashfs extractor in internal/imgfmt, the chunk codec and reader and the
# digest fold against its recursive oracle (FuzzDigestFold) in
# internal/fsimage, the shard document, manifest and journal decoders in
# internal/distribute, and there too the fragment and manifest readers in
# a round trip with their writers (FuzzDocumentReader,
# FuzzManifestReader), the radix sort against sort.Float64s in
# internal/stats, the resolver's K-S over its sorted pool against
# gof.KSTwoSample in internal/constraint (FuzzPoolKS), and the text and
# binary content kernels against their reference loops in
# internal/content: FuzzTextFill, FuzzBinaryFill) for FUZZ_TIME each. The seed corpora under testdata/fuzz/ already replay in
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
# determinism-contract checker (cmd/impressionsvet), which loads every
# package of the module from source, bench/pipeline's included, and exits 2
# on any finding; TestModuleIsClean runs the same check. staticcheck
# and govulncheck run when installed (CI installs pinned versions; local
# runs skip them rather than forcing a download). The cross-builds cover the
# platforms the test matrix does not run: the VFS writer calls syscall
# directly, with openat(2) on Linux and full-path opens elsewhere (the
# darwin and windows vets cover that second writer, which no Linux run
# executes), cmd/impressions does not build on windows (syscall.Kill), and
# 386 is the 32-bit int every constant comparison must fit, which the 386
# vet holds the test files to as well.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	GOOS=darwin $(GO) build ./...
	GOOS=freebsd $(GO) build ./...
	GOOS=windows $(GO) build $$($(GO) list ./... | grep -v '/cmd/impressions$$')
	GOOS=darwin $(GO) vet ./internal/fsimage ./internal/distribute
	GOOS=windows $(GO) vet ./internal/fsimage
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -short ./internal/content ./internal/imgfmt ./internal/stats/... ./internal/search ./internal/workload ./internal/disk
	GOARCH=arm64 $(GO) build ./...
	$(GO) build -o bin/impressionsvet ./cmd/impressionsvet
	bin/impressionsvet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

fmt:
	gofmt -w .

# Lines of Go outside bench/pipeline/ (the benchmark's own module), non-test
# and test apart: the measure the ROADMAP's line counts are taken with.
loc:
	@for kind in non-test test; do \
		if [ $$kind = test ]; then sel=; else sel=-not; fi; \
		n=$$(find . \( -path ./.git -o -path ./bench/pipeline \) -prune -o -name '*.go' $$sel -name '*_test.go' -print0 | xargs -0 cat | wc -l); \
		echo "$$kind Go outside bench/pipeline/: $$n lines"; \
	done

ci: build lint race bench-smoke
