# Convenience targets; everything is plain `go` underneath.

.PHONY: all build check fmt-check vet test race train-equivalence resume-equivalence campaign-equivalence chaos-equivalence chaos-soak pool-equivalence session-equivalence soak-server fleet-equivalence fleet-soak fleet-failover bench bench-train bench-train-smoke bench-campaign bench-campaign-smoke bench-pool bench-pool-smoke figures figures-paper report examples clean

all: build check

build:
	go build ./...

# check is the pre-commit gate: gofmt cleanliness, static analysis, the full test suite
# under the race detector (the forest/experiment layers are heavily
# concurrent), the six equivalence gates (training engine, resume,
# campaign engine, streaming pool, ask-tell sessions, fleet drain), the
# chaos gates (fault-injection equivalence
# and the mixed-fault race soaks, in-process and fleet), the server
# soak, and smoke-sized runs of the training, streaming-pool and
# campaign benchmarks.
check: fmt-check vet race train-equivalence resume-equivalence campaign-equivalence chaos-equivalence chaos-soak pool-equivalence session-equivalence soak-server fleet-equivalence fleet-soak fleet-failover bench-train-smoke bench-pool-smoke bench-campaign-smoke

# train-equivalence gates the presorted-column training engine: the
# builder-equivalence property tests (presorted vs reference builder must
# emit bit-identical trees), the shared-rank path (column ranking, and
# every tree forest.Fit and forest.Update build from shared ranks equal
# to the reference builder on its materialised bootstrap, generator end
# state included), the non-finite feature rejection the ranking relies
# on, and the forest fit path with DisableBagging on and off, all under
# the race detector so the per-worker workspace reuse and the shared
# read-only ranks are exercised concurrently.
train-equivalence:
	go test -race -run 'TestBuilderEquivalence|TestWorkspaceReuse|TestRank|TestFitRejectsNonFinite|TestForestFitBaggingModes|TestOOBParallel' ./internal/tree ./internal/forest

# resume-equivalence gates the checkpoint/resume subsystem: an
# interrupted run continued from its snapshot must be bit-identical to
# the uninterrupted run (cold-refit and warm-update forests, a lazily
# generated source, the snapshot JSON round trip, and the pipeline-level
# Tune resume), and checkpoints written by the retired materialized-pool
# engine must still resume onto the session goldens — or be rejected
# when their pool or membership list does not fit.
resume-equivalence:
	go test -race -run 'TestResumeEquivalence|TestResumeStreamEquivalence|TestLegacyCheckpoint|TestCheckpointCadence|TestTuneCheckpointResume|TestTuneRejectsForeignCheckpoint' ./internal/core ./internal/autotune ./internal/runstate

# campaign-equivalence gates the campaign engine: the work-stealing
# drain must reproduce the retained sequential RunAll path bit for bit
# for every strategy and any worker count, the single-flight dataset
# cache must build each repetition's dataset exactly once, and the
# cached checkpoint-evaluation path (each warm repetition scans its
# held-out set through a pool.ScanCache) must equal PredictBatch
# exactly, down to identical learning curves.
campaign-equivalence:
	go test -race -run 'TestCampaignMatchesSequential|TestCampaignWorkerInvariance|TestCampaignDatasetCacheHits|TestCampaignWarmUpdate|TestAggregatePartialRepsCount|TestPredictCachedMatchesBatch|TestEngineSwapCurvesIdentical|TestSchedulerRunsEveryTaskOnce|TestDatasetCacheSingleFlight' ./internal/experiment ./internal/forest ./internal/campaign

# chaos-equivalence gates the fault injector against the run engine: a
# transient-only scenario fully covered by retries must leave every
# strategy's learning curves — and the end-to-end tuning outcome —
# bit-identical to the fault-free run, because injected errors never
# consume the evaluator's measurement stream and retries never touch
# the loop generator.
chaos-equivalence:
	go test -race -run 'TestChaosEquivalenceAllStrategies|TestInjectedErrorPreservesInnerStream|TestInjectorDeterminism|TestTuneChaosTransparent' ./internal/experiment ./internal/chaos ./internal/autotune

# chaos-soak gates the hardened drain under the race detector: a mixed
# hang/panic/error scenario across the whole campaign grid must drain
# cleanly — hangs cut by the per-evaluation timeout, panics quarantined
# to their own cell, transient errors retried — with zero goroutine
# leaks, and cancellation must interrupt in-flight hangs and backoffs
# promptly.
chaos-soak:
	go test -race -run 'TestChaosSoakMixedFaults|TestCampaignQuarantinesPanickedCells|TestSchedulerQuarantinesPanics|TestTimeoutCutsHangAsRetryable|TestNoGoroutineLeakCancelDuringHang|TestBackoffInterruptedByCancel|TestBackoffClampedByTimeout' ./internal/experiment ./internal/campaign ./internal/core

# pool-equivalence gates the streaming sharded scoring pipeline, the
# engine's only selection path: every strategy's SelectStream must equal
# the sort-based reference selection kept in the tests, invariant across
# shard sizes and worker counts (pools smaller than one shard and a
# one-candidate pool included; concurrent scans sharing the recycled
# scan buffers must each deliver what they deliver alone) — sources
# replay materialized draws
# exactly, ScoreBatch equals PredictBatch per row, the bounded top-k
# reducers match the sort-based oracle on the shared ordering-contract
# table, a run over a lazy source equals the run over the same
# candidates as a pool.Slice end to end (including resume from any
# snapshot), and the full Tune pipeline lands where the materialized
# model phase does. The
# keyed 8-lane tree walk is gated on adversarial rows (NaN of both
# signs, infinities, both zeros, one ulp either side of every split,
# out-of-range category codes, every ragged group length): every batch
# entry must equal PredictWithUncertainty bit for bit, the lane and
# scalar walks must equal the pointer tree, and the float-to-key map
# must preserve order (TestKeyOrder, plus FuzzKeyOrder's committed seed
# corpus). The cross-scan score cache is gated too: per-slot panels
# aggregated over every slot must equal ScoreBatch, PredictBatch must
# match per-row prediction on chunks straddling the row tile, cached
# scans of a forest must equal PredictBatch after any sequence of
# partial updates, a warm-update run must be bit-identical with the
# cache on, starved or off, and on the forest's scorer or a plain
# PredictBatch model, and warm Tune must land where the warm
# materialized model phase does.
pool-equivalence:
	go test -race -run 'TestRunStreamMatchesRun|TestRunStreamEnumerationSource|TestResumeStreamEquivalence|TestSelectStreamMatchesSelect|TestSelectionContractSharedTable|TestSelectionHelpersClampK|TestSourcesShardInvariance|TestUniformMatchesSampleConfigs|TestLHSMatchesSampleLHS|TestScanShardWorkerInvariance|TestScanConcurrentScans|TestScanExactlyOnce|TestTopKMatchesOracle|TestScoreBatchMatchesPredictBatch|TestScoreBatchConcurrent|TestStreamMatchesInMemory|TestExactKernelsBitIdentical|TestLeaf8TBitIdentical|TestKeyOrder|FuzzKeyOrder|TestExactSlotsAggregateBitIdentical|TestPredictBatchRaggedChunks|TestPredictPool|TestUpdateRotationKeepsCacheConsistent|TestPoolPredictorPathBitIdentical|TestStreamCacheEquivalence' ./internal/core ./internal/pool ./internal/forest ./internal/autotune ./internal/tree

# session-equivalence gates the ask-tell session refactor: the drivers
# (Run/Resume) are thin loops over core.Session, and every strategy's
# trajectory — over a lazy source and over the same candidates as a
# pool.Slice, resumed from every checkpoint prefix, and resumed from the
# retired materialized engine's checkpoints — must stay bit-identical
# to the pre-refactor goldens pinned in testdata/session_golden.json. The
# daemon half kills a tuned process mid-batch over HTTP, restarts it,
# and requires the recovered session's curve to equal an undisturbed
# daemon's, plus the snapshot version-tolerance contract.
session-equivalence:
	go test -race -run 'TestSessionEquivalenceGolden|TestSessionResumeEveryPrefix|TestLegacyCheckpoint|TestSnapshotVersionTolerance|TestSession' ./internal/core
	go test -race -run 'TestDaemonKillRecoverEquivalence' ./cmd/tuned

# soak-server floods one tuned session manager with >1000 concurrent
# ask-tell sessions under the race detector — mixed run-to-completion,
# retransmit-every-tell, abandon-mid-batch and delete behaviors — then
# crash-recovers the survivors from their checkpoints with a second
# manager and checks for goroutine leaks. SOAK_SESSIONS overrides the
# scale.
soak-server:
	go test -race -run 'TestSoakConcurrentSessions|TestServer' ./internal/server

# fleet-equivalence gates the distributed evaluation fleet: a campaign
# drained through the lease-based coordinator by network workers — one,
# two or four of them, chaos-ridden (hang/panic/corrupt injection) or
# killed mid-lease — must produce curves bit-identical to the retained
# RunAllSequential path for every strategy, because cell seeds derive
# from (campaign seed, rep) and never from scheduling, results travel
# as checksummed JSON, and the coordinator ingests at most one valid
# payload per task key. The protocol layer (lease expiry, idempotent
# completion, stale-lessee acceptance), the long-polled lease (a parked
# worker woken by a submit or a re-queue, released by shutdown and by a
# cancelled request without losing an attempt, one request per Poll
# against a coordinator that ignores wait_ms) and the remote
# evaluator's noise-stream round trip are gated alongside.
fleet-equivalence:
	go test -race -run 'TestFleetCampaignMatchesLocal|TestFleetChaosEquivalence|TestFleetKilledMidLeaseEquivalence|TestFleetSchedulerStats|TestFleetRejectsCustomFitter|TestTuneRemoteMatchesLocal' ./internal/experiment ./internal/autotune
	go test -race -run 'TestCoordinator|TestWorker|TestLeaseHold|TestRemoteEvaluatorMatchesLocal|TestChaos|TestChecksum|TestParseWorkerChaos' ./internal/fleet

# fleet-soak drains a campaign through a fleet of workers with mixed
# process-level faults — crashes (killed and supervised back up),
# hangs past the lease TTL, panics and payload corruption — under the
# race detector, requiring bit-identical curves and zero goroutine
# leaks once the drain completes.
fleet-soak:
	go test -race -run 'TestFleetSoakMixedFaults' ./internal/experiment

# fleet-failover gates the durable coordinator: the journal layer
# (crash-image recovery, torn-tail truncation at every offset,
# compaction, halt/reattach, typed shutdown errors, held leases released
# by Close and Halt), the HTTP submitter client riding out coordinator
# restarts and long-polling job status, and the fleetd drills — the
# coordinator SIGKILLed mid-campaign and restarted on the same address,
# the submitter abandoned and reattached by its deterministic job ID —
# all under the race detector, requiring curves bit-identical to
# RunAllSequential, zero re-executions of journaled completions, and
# zero goroutine leaks. The tuned client-fault drill (retransmits,
# mid-tell stalls, dropped asks) rides along as the session-layer
# counterpart.
fleet-failover:
	go test -race -run 'TestAppendLog' ./internal/runstate
	go test -race -run 'TestJournal|TestClient|TestLeaseHoldReleasedByShutdown|TestRegisterBackoff|TestJobWaitShutdownVsContext|TestCoordinatorCloseFailsPending' ./internal/fleet
	go test -race -run 'TestFleetd' ./cmd/fleetd
	go test -race -run 'TestServerChaosClientFaults' ./internal/server

# fmt-check fails when any Go file is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Full benchmark sweep (every table/figure + ablations at reduced scale).
bench:
	go test -bench=. -benchmem -run xxx ./...

# Training-engine benchmarks only: paper-scale tree/forest fits on the
# presorted engine vs the retained reference builder, plus the
# tune-shaped forest refit. Each run appends one entry per benchmark to
# BENCH_train.json (schema: train_bench_test.go), the recorded
# trajectory that bench-train-smoke guards against.
bench-train:
	BENCH_TRAIN_JSON=BENCH_train.json go test -bench 'TreeFit|ForestFit' -benchmem -run xxx .

# Smoke-sized bench-train for the check gate and CI: the paper-scale and
# tune-shaped forest refits for about half a second each — fails if
# either one's per-core ms/fit exceeds twice its most recent
# BENCH_train.json entry (the 2x margin absorbs runner noise).
bench-train-smoke:
	TRAIN_BENCH_BASELINE=BENCH_train.json go test -bench 'BenchmarkForestFit$$|BenchmarkForestFitTune$$' -benchmem -benchtime 500ms -run xxx .

# Campaign-engine benchmarks: the work-stealing grid drain vs the
# retained sequential path vs the fleet drain (coordinator + two
# network workers) on a Fig. 2-shaped grid, plus the CSV writer. Each
# run appends mode=local and mode=fleet entries to BENCH_campaign.json
# (schema: campaign_bench_test.go), the recorded trajectory that
# bench-campaign-smoke guards against and
# `go run ./cmd/report -bench-campaign BENCH_campaign.json` renders.
bench-campaign:
	BENCH_CAMPAIGN_JSON=BENCH_campaign.json go test -bench 'BenchmarkCampaignFig2' -benchmem -run xxx .
	go test -bench 'WriteCSV' -benchmem -run xxx ./internal/dataset

# Smoke-sized bench-campaign for the check gate and CI: a two-kernel
# grid, one iteration of the local and fleet drains — proves both
# engines end to end in about a second and fails if either mode's
# per-core ms/cell exceeds twice its most recent BENCH_campaign.json
# entry (the 2x margin absorbs runner noise).
bench-campaign-smoke:
	CAMPAIGN_BENCH_PROBLEMS=2 CAMPAIGN_BENCH_BASELINE=BENCH_campaign.json go test -bench 'BenchmarkCampaignFig2$$|BenchmarkCampaignFig2Fleet$$' -benchmem -benchtime 1x -run xxx .

# Streaming-pool benchmark: PWU-score a pool that is never materialized
# (generate -> encode -> 64-tree score -> bounded top-k) on the forest's
# exact kernel, on one core (-cpu 1). POOL_BENCH_N
# sets the pool size; the default is 200k and the 10^7-config
# demonstration is
# POOL_BENCH_N=10000000 (B/op stays flat — peak memory is
# O(workers x shard), not O(pool)). Each run appends machine-readable
# entries to BENCH_pool.json (schema: pool_bench_test.go), the recorded
# benchmark trajectory that bench-pool-smoke guards against and
# `go run ./cmd/report -bench-pool BENCH_pool.json` renders.
bench-pool:
	BENCH_POOL_JSON=BENCH_pool.json go test -bench 'BenchmarkPoolStreamPWU' -benchmem -cpu 1 -run xxx .

# Smoke-sized bench-pool for the check gate and CI: a 20k pool, one
# iteration at -cpu 1 — proves the pipeline end to end in about a
# second and fails if its ns/candidate exceeds twice the most recent
# exact BENCH_pool.json entry at the same worker count (bench-pool
# records at -cpu 1 too, so the baseline is like for like; the 2x
# margin absorbs runner noise).
bench-pool-smoke:
	POOL_BENCH_N=20000 POOL_BENCH_BASELINE=BENCH_pool.json go test -bench 'BenchmarkPoolStreamPWU' -benchmem -benchtime 1x -cpu 1 -run xxx .

# Regenerate every table and figure of the paper (quick, shape-preserving).
figures:
	go run ./cmd/figures -scale quick -out out
	go run ./cmd/report -dir out -o out/RESULTS.md

# The full §III-D protocol; expect hours.
figures-paper:
	go run ./cmd/figures -scale paper -out out
	go run ./cmd/report -dir out -o out/RESULTS.md

examples:
	go run ./examples/quickstart
	go run ./examples/custom_space
	go run ./examples/strategy_anatomy
	go run ./examples/surrogate_tuning
	go run ./examples/model_portability
	go run ./examples/risk_aware
	go run ./examples/mpi_applications

clean:
	rm -rf out test_output.txt bench_output.txt
