# Convenience targets; everything is plain `go` underneath.

.PHONY: all build check fmt-check vet test race fuzz-smoke train-equivalence resume-equivalence campaign-equivalence chaos-equivalence chaos-soak pool-equivalence session-equivalence soak-server fleet-equivalence fleet-soak fleet-failover bench bench-checkpoint bench-train bench-train-smoke bench-campaign bench-campaign-smoke bench-pool bench-pool-smoke figures figures-paper report examples clean

all: build check

build:
	go build ./...

# check is the pre-commit gate: gofmt cleanliness, static analysis, the full test suite
# under the race detector (the forest/experiment layers are heavily
# concurrent), the six equivalence gates (training engine, resume,
# campaign engine, streaming pool, ask-tell sessions, fleet drain), the
# chaos gates (fault-injection equivalence
# and the mixed-fault race soaks, in-process and fleet), the server
# soak, a few seconds of fuzzing per fuzz target, and smoke-sized runs of the training, streaming-pool and
# campaign benchmarks.
check: fmt-check vet race fuzz-smoke train-equivalence resume-equivalence campaign-equivalence chaos-equivalence chaos-soak pool-equivalence session-equivalence soak-server fleet-equivalence fleet-soak fleet-failover bench-train-smoke bench-pool-smoke bench-campaign-smoke

# train-equivalence gates the presorted-column training engine: the
# builder-equivalence property tests (the flat preorder arrays the
# engine emits must hold exactly the pointer tree of the per-node-sorting
# test oracle FitReference in internal/tree/reference_test.go, a column
# mixing -0 and +0 and levels one ulp apart included), the branch-free
# stable partitions against the branchy oracles kept beside FitReference
# (random, all-left and all-right masks, awkward lengths), the
# shared-rank path (column ranking, FitRanked on bootstraps equal to the
# oracle on the materialised sample, and every tree forest.Fit and
# forest.Update build from shared ranks equal to a whole-set fit of its
# materialised bootstrap, generator end state included), the non-finite
# feature rejection the ranking relies on, and the forest fit path with
# DisableBagging on and off, all under the race detector so the
# per-worker workspace reuse and the shared read-only ranks are
# exercised concurrently. The one fitted-tree form rides along: fitted,
# lone-leaf and decoded flat trees must equal the oracle's pointer tree
# and route every probe as its float compares and bool category lists
# do (one ulp either side of every threshold, NaN, both zeros,
# out-of-range categories), and the forest wire bytes of a leaf-target
# categorical, a TotalVariance and a warm-updated forest must match
# their sha256 goldens (TestForestWireGolden).
train-equivalence:
	go test -race -run 'TestBuilderEquivalence|TestStablePartitionMatchesOracle|TestWorkspaceReuse|TestRank|TestFitRejectsNonFinite|TestForestFitBaggingModes|TestOOBParallel|TestCompiledMatchesPointer|TestCompiledSingleLeaf|TestCompiledSerializeRoundTrip|TestForestWireGolden' ./internal/tree ./internal/forest

# resume-equivalence gates the checkpoint/resume subsystem: an
# interrupted run continued from its snapshot must be bit-identical to
# the uninterrupted run (cold-refit and warm-update forests, a lazily
# generated source, the snapshot JSON round trip, and the pipeline-level
# Tune resume), and checkpoints written by the retired materialized-pool
# engine must still resume onto the session goldens — or be rejected
# when their pool or membership list does not fit. The checkpoint wire
# path rides along: every checkpoint file (all bench problems, cold and
# warm refits, leaf targets, a categorical space, a service manifest, a
# non-forest model) and every tree and forest encoding must be
# byte-identical to encoding/json's, and the forest loader must survive
# its fuzz seed corpus (hostile splits included) without a panic. A
# cold-refit snapshot records its fit seed instead of the model: resume
# -> snapshot -> resume must rebuild the same model bytes from a
# fit-seed, a legacy model-carrying and a warm-update snapshot, the
# refit must equal the live forest, and the snapshot loader must survive
# its fuzz seed corpus (v1, v2 with a service manifest, v3 fit seed, a
# legacy Remaining snapshot) without a panic.
resume-equivalence:
	go test -race -run 'TestResumeEquivalence|TestResumeStreamEquivalence|TestLegacyCheckpoint|TestCheckpointCadence|TestTuneCheckpointResume|TestTuneRejectsForeignCheckpoint|TestSnapshotBytesMatchEncodingJSON|TestSaveValidatesUnappendedModels|TestAppendJSONMatchesEncodingJSON|FuzzForestLoad|TestSnapshotResumeRoundTrip|TestSnapshotResumeCorpus|FuzzSnapshotResume' ./internal/core ./internal/autotune ./internal/runstate ./internal/forest ./internal/tree

# campaign-equivalence gates the campaign engine: the work-stealing
# drain must reproduce the sequential per-strategy test oracle
# (runAllSequential in internal/experiment/campaign_test.go) bit for bit
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
# scalar walks must equal the pointer-tree oracle, and the float-to-key map
# must preserve order (TestKeyOrder, plus FuzzKeyOrder's committed seed
# corpus). The cross-scan score cache is gated too: per-slot leaf-id
# panels aggregated over every slot must equal ScoreBatch, PredictBatch must
# match per-row prediction on chunks straddling the row tile, cached
# scans of a forest must equal PredictBatch after any sequence of
# partial updates, a warm-update run must be bit-identical with the
# cache on, starved or off, and on the forest's scorer or a plain
# PredictBatch model, and warm Tune must land where the warm
# materialized model phase does. The level-keyed scan (rows and keys
# built from level indices through per-parameter tables) must deliver
# the (ord, x, mu, sigma) of the float-row ScoreBatch path for every
# candidate — numeric levels negative, zero, tiny and huge, booleans,
# categoricals, single-level parameters — with the cache on, starved
# or off. Random access is gated too: Uniform.At must equal the stream
# at every index (before any scan, past the last checkpoint, after a
# Reset, any read size), the batch draw IntnEach must equal Intn
# rejections included, and the regeneration fetch for sources without
# At stays covered. A cancelled context stops a scan at a shard
# boundary without committing its cache, and an Ask cancelled mid-scan
# leaves its session at the boundary, so the next Ask returns the
# uncancelled batch. Both σ estimators must equal a tree-order oracle
# over full leaf statistics on every scoring entry (a BetweenTrees
# forest never loads a leaf variance; TotalVariance keeps its exact
# sum). PWU's floor-pruned selection must equal the unpruned top-k on
# hostile pools (ties at the floor at smaller and larger ordinals,
# duplicates, NaN and infinite inputs, σ = 0, μ at, below and far from
# the clamp, α from 0.01 to 1, every delivery order), take the exact
# path where pruning is unsound (a floor at or below 0 or infinite, α
# outside (0, 1]), and never reject a candidate whose exact score
# reaches the floor (FuzzPWUFloor's committed seed corpus); the top-k
# floor it reads is gated on its own.
pool-equivalence:
	go test -race -run 'TestRunStreamMatchesRun|TestResumeStreamEquivalence|TestSelectStreamMatchesSelect|TestSelectionContractSharedTable|TestSelectionHelpersClampK|TestSourcesShardInvariance|TestUniformMatchesSampleConfigs|TestScanShardWorkerInvariance|TestScanConcurrentScans|TestScanExactlyOnce|TestTopKMatchesOracle|TestScoreBatchMatchesPredictBatch|TestScoreBatchConcurrent|TestStreamMatchesInMemory|TestExactKernelsBitIdentical|TestLeaf8TBitIdentical|TestKeyOrder|FuzzKeyOrder|TestExactSlotsAggregateBitIdentical|TestPredictBatchRaggedChunks|TestPredictPool|TestUpdateRotationKeepsCacheConsistent|TestPoolPredictorPathBitIdentical|TestStreamCacheEquivalence|TestLevelKeyedScanBitIdentical|TestUniformAtMatchesStream|TestRandomAccessMatchesSequence|TestFetchConfigsSequentialSource|TestIntnEachMatchesIntn|TestScanStopsOnCancel|TestAskCancelledMidScan|TestMomentsMatchTreeOrderOracle|TestTopKFloor|TestPWUFloorMatchesExact|TestPWUFloorExactPaths|FuzzPWUFloor' ./internal/core ./internal/pool ./internal/forest ./internal/autotune ./internal/tree ./internal/rng

# session-equivalence gates the ask-tell session refactor: the drivers
# (Run/Resume) are thin loops over core.Session, and every strategy's
# trajectory — over a lazy source and over the same candidates as a
# pool.Slice, resumed from every checkpoint prefix, and resumed from the
# retired materialized engine's checkpoints — must stay bit-identical
# to the pre-refactor goldens pinned in testdata/session_golden.json. The
# daemon half kills a tuned process mid-batch over HTTP, restarts it,
# and requires the recovered session's curve to equal an undisturbed
# daemon's, plus the snapshot version-tolerance contract. The Fig. 8
# tuner rides on the same engine (core.Run with BestPerf and a batch of
# one): its best-so-far trace must equal the hand-written greedy loop
# kept as the test oracle in internal/figures, bit for bit, over six
# problems, two seeds and both the true and the surrogate annotator.
session-equivalence:
	go test -race -run 'TestSessionEquivalenceGolden|TestSessionResumeEveryPrefix|TestLegacyCheckpoint|TestSnapshotVersionTolerance|TestSnapshotResumeRoundTrip|TestSession' ./internal/core
	go test -race -run 'TestDaemonKillRecoverEquivalence' ./cmd/tuned
	go test -race -run 'TestFig8MatchesGreedyOracle' ./internal/figures

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
# killed mid-lease — must produce curves bit-identical to the
# sequential test oracle runAllSequential (internal/experiment) for
# every strategy, because cell seeds derive
# from (campaign seed, rep) and never from scheduling, results travel
# as checksummed JSON, and the coordinator ingests at most one valid
# payload per task key. The protocol layer (lease expiry, idempotent
# completion, stale-lessee acceptance), the long-polled lease (a parked
# worker woken by a submit or a re-queue, released by shutdown and by a
# cancelled request without losing an attempt, one request per Poll
# against a coordinator that ignores wait_ms) and the remote
# evaluator's noise-stream round trip are gated alongside, as is the
# worker fault grammar (chaos.ParseWorker).
fleet-equivalence:
	go test -race -run 'TestFleetCampaignMatchesLocal|TestFleetChaosEquivalence|TestFleetKilledMidLeaseEquivalence|TestFleetSchedulerStats|TestFleetRejectsCustomFitter|TestTuneRemoteMatchesLocal' ./internal/experiment ./internal/autotune
	go test -race -run 'TestCoordinator|TestWorker|TestLeaseHold|TestRemoteEvaluatorMatchesLocal|TestChaos|TestChecksum|TestParseWorkerChaos' ./internal/fleet ./internal/chaos

# fleet-soak drains a campaign through a fleet of workers with mixed
# process-level faults — crashes (killed and supervised back up),
# hangs past the lease TTL, panics and payload corruption — under the
# race detector, requiring bit-identical curves and zero goroutine
# leaks once the drain completes.
fleet-soak:
	go test -race -run 'TestFleetSoakMixedFaults' ./internal/experiment

# fleet-failover gates the durable coordinator: the journal layer
# (crash-image recovery, torn-tail truncation at every offset,
# compaction, close/reattach, a completion whose journal append fails
# expiring and re-queueing instead of stranding its task, typed
# shutdown errors that keep pending task state, held leases released
# by Close), the HTTP submitter client riding out coordinator
# restarts and long-polling job status, and the fleetd drills — the
# coordinator SIGKILLed mid-campaign and restarted on the same address,
# the submitter abandoned and reattached by its deterministic job ID —
# all under the race detector, requiring curves bit-identical to the
# local drain experiment.RunAll (which campaign-equivalence pins to the
# runAllSequential oracle), zero re-executions of journaled
# completions, and zero goroutine leaks. The tuned client-fault drill (retransmits,
# mid-tell stalls, dropped asks) rides along as the session-layer
# counterpart.
fleet-failover:
	go test -race -run 'TestAppendLog' ./internal/runstate
	go test -race -run 'TestJournal|TestClient|TestLeaseHoldReleasedByShutdown|TestRegisterBackoff|TestJobWaitShutdownVsContext|TestCoordinatorCloseKeepsPending' ./internal/fleet
	go test -race -run 'TestFleetd' ./cmd/fleetd
	go test -race -run 'TestServerChaosClientFaults' ./internal/server

# fuzz-smoke runs each fuzz target for a few seconds beyond its committed
# seed corpus (which every plain `go test` already replays): the top-k
# reducers against the sort-based specification, the float-to-key order
# map, the forest loader on hostile model JSON, PWU's floor bound, and
# the checkpoint loader (decode + ResumeSession) on hostile snapshots.
# A failing input is written under the package's testdata/fuzz, ready to
# commit as a seed.
fuzz-smoke:
	go test -run xxx -fuzz '^FuzzTopK$$' -fuzztime 2s ./internal/pool
	go test -run xxx -fuzz '^FuzzKeyOrder$$' -fuzztime 2s ./internal/tree
	go test -run xxx -fuzz '^FuzzForestLoad$$' -fuzztime 2s ./internal/forest
	go test -run xxx -fuzz '^FuzzPWUFloor$$' -fuzztime 2s ./internal/core
	go test -run xxx -fuzz '^FuzzSnapshotResume$$' -fuzztime 2s ./internal/runstate

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

# The recorded benchmark trajectories. bench-train, bench-campaign,
# bench-pool and bench-checkpoint append their entries to
# BENCH_train.json, BENCH_campaign.json, BENCH_pool.json and
# BENCH_checkpoint.json through BENCH_JSON; each bench-*-smoke gate fails
# through BENCH_BASELINE when a benchmark's per-core value (value x
# workers) exceeds twice that of the newest entry of the same workload —
# bench, key and workload params (problems, pool_size, n, d, trees,
# labels) — in the committed trajectory (the 2x margin absorbs runner
# noise), so a smoke-sized run is guarded by a committed smoke-sized
# entry, never by a full-size recording. All four files share one entry
# schema (report.BenchEntry; recorder: bench_record_test.go) and
# `go run ./cmd/report -bench FILE` renders any of them. Setting
# BENCH_JSON when calling a smoke target records its entries too, as CI
# does.

# Training-engine benchmarks only: paper-scale tree and forest fits on
# the presorted engine, plus the tune-shaped forest refit (the reference
# builder is a test oracle, timed unrecorded by
# `go test -bench FitReference ./internal/tree`). Each run appends one
# entry per benchmark to BENCH_train.json.
bench-train:
	BENCH_JSON=BENCH_train.json go test -bench 'TreeFit|ForestFit' -benchmem -run xxx .

# Smoke-sized bench-train for the check gate and CI: the paper-scale and
# tune-shaped forest refits for about half a second each, guarded
# against BENCH_train.json.
bench-train-smoke:
	BENCH_BASELINE=BENCH_train.json go test -bench 'BenchmarkForestFit$$|BenchmarkForestFitTune$$' -benchmem -benchtime 500ms -run xxx .

# Campaign-engine benchmarks: the work-stealing grid drain vs the fleet
# drain (coordinator + two network workers) on a Fig. 2-shaped grid,
# the sequential test oracle on the same default grid (unrecorded,
# internal/experiment), plus the CSV writer. Each run appends key=local
# and key=fleet entries to BENCH_campaign.json. The recording runs a
# fixed four drains per mode (-benchtime 4x): the harness's one-drain
# probe run goes first and warms the process, and the recorded entry is
# the mean of the four that follow, not one ~1 s run whose first drain
# reads high.
bench-campaign:
	BENCH_JSON=BENCH_campaign.json go test -bench 'BenchmarkCampaignFig2' -benchmem -benchtime 4x -run xxx .
	go test -bench 'BenchmarkCampaignFig2Sequential' -benchmem -run xxx ./internal/experiment
	go test -bench 'WriteCSV' -benchmem -run xxx ./internal/dataset

# Smoke-sized bench-campaign for the check gate and CI: a two-kernel
# grid, one iteration of the local and fleet drains — proves both
# engines end to end in about a second, guarded against the committed
# problems=2 entries of BENCH_campaign.json.
bench-campaign-smoke:
	CAMPAIGN_BENCH_PROBLEMS=2 BENCH_BASELINE=BENCH_campaign.json go test -bench 'BenchmarkCampaignFig2$$|BenchmarkCampaignFig2Fleet$$' -benchmem -benchtime 1x -run xxx .

# Streaming-pool benchmark: PWU-score a pool that is never materialized
# (generate -> encode -> 64-tree score -> bounded top-k) on the forest's
# exact kernel, on one core (-cpu 1). POOL_BENCH_N sets the pool size;
# the default is 200k and the 10^7-config demonstration is
# POOL_BENCH_N=10000000 (B/op stays flat — peak memory is
# O(workers x shard), not O(pool)). Each run appends a key=exact entry
# to BENCH_pool.json. The recording runs a fixed ten scans
# (-benchtime 10x): the harness's one-scan probe goes first and warms
# the process, and the recorded entry is the mean of the ten that
# follow, not the two or three scans the default 1 s benchtime fits at
# 200k candidates.
bench-pool:
	BENCH_JSON=BENCH_pool.json go test -bench 'BenchmarkPoolStreamPWU' -benchmem -benchtime 10x -cpu 1 -run xxx .

# Smoke-sized bench-pool for the check gate and CI: a 20k pool, one
# iteration at -cpu 1 — proves the pipeline end to end in about a
# second, guarded against the committed pool_size=20000 entry of
# BENCH_pool.json (recorded at -cpu 1 too, so the baseline is like for
# like).
bench-pool-smoke:
	POOL_BENCH_N=20000 BENCH_BASELINE=BENCH_pool.json go test -bench 'BenchmarkPoolStreamPWU' -benchmem -benchtime 1x -cpu 1 -run xxx .

# Checkpoint benchmark: one boundary checkpoint of a serve-refit-shaped
# session (Session.Snapshot + runstate.Save: encode, write, fsync,
# rename, directory fsync) on one core, a fixed 200 checkpoints after
# the harness's probe run. Each run appends one entry, with the
# checkpoint's size in params.bytes, to BENCH_checkpoint.json. It has no
# smoke gate: the fsync dominates, and its latency belongs to the disk.
bench-checkpoint:
	BENCH_JSON=BENCH_checkpoint.json go test -bench 'BenchmarkSessionCheckpoint$$' -benchmem -benchtime 200x -cpu 1 -run xxx .

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
