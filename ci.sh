#!/usr/bin/env sh
# CI pipeline. Tiers are cumulative; run the highest tier you have time for.
#
#   ./ci.sh            tier-1   (build + vet + rcuvet + full test suite, no
#                                race detector; rcuvet is the in-repo static
#                                analysis suite — see DESIGN.md "Static
#                                analysis". rcuvet runs with -time so the
#                                per-analyzer wall cost stays visible, and a
#                                failure names the offending analyzer(s))
#   ./ci.sh race       tier-1.5 (adds go test -race over the -short subset:
#                                every package's tests with the long stress
#                                loops trimmed, including the lincheck
#                                suites, under the race detector)
#   ./ci.sh lint       lint tier: staticcheck + govulncheck at pinned
#                                versions, installed once into .cache/toolbin
#                                (requires network on first run; fails fast
#                                with instructions when offline), then
#                                rcuvet -json archived as RCUVET.json next
#                                to the BENCH_*.json artifacts
#   ./ci.sh bench      perf tier: the rcubench read-scaling sweep at short
#                                settings, emitting BENCH_PR2.json (the
#                                amortized-EBR-read-path A/B trajectory
#                                baseline: flat vs striped vs pinned)
#   ./ci.sh chaos      fault tier: rcutorture -chaos over a fixed seed list
#                                (seeded fault schedules against a loopback
#                                cluster: connection-fault storms, node
#                                kills mid-resize, partitions, stale lease
#                                holders) plus go test -run Chaos -race
#   ./ci.sh obs        observability tier: the rcubench enabled-vs-disabled
#                                read-path A/B (now including the watchdog's
#                                reader annotations), emitting BENCH_PR10.json;
#                                fails if enabling observability costs the
#                                read path more than 10%. Then a 3-node traced
#                                workload writes CLUSTER_TRACE_PR10.json and
#                                gates on >= 1 cross-node flow arrow and 0
#                                orphan spans; the chaos seed list runs with
#                                stall watchdogs armed gating false positives
#                                at 0; and the induced stalled-reader round
#                                must fire exactly one correctly-attributed
#                                warning
#   ./ci.sh install    resize tier: the rcubench incremental-install
#                                experiment, emitting BENCH_PR6.json; fails
#                                if the install-phase p99 exceeds 1/5 of the
#                                PR 5 monolithic-install baseline, or if the
#                                combining-tree Synchronize is slower than
#                                the flat layout at 1 locale or not faster
#                                at 4 locales
#   ./ci.sh serve      comm fast-path tier: allocation-regression benchmarks
#                                (go test -bench -benchmem against pinned
#                                allocs/op budgets for frame encode/decode and
#                                GET/PUT round trips), then the rcubench serve
#                                experiment, emitting BENCH_PR7.json; fails if
#                                the batched comm path is under 2x the
#                                unbatched baseline at 8 callers, if the
#                                open-loop read p99 exceeds 20ms, if
#                                achieved QPS falls below 90% of target, or
#                                if the rolling-window read SLO burn rate
#                                exceeds 1.0 (serve_read_burn_ppm on /metrics)
#   ./ci.sh recover    durability tier: rcutorture -chaos forced to the
#                                recover scenario (snapshot, kill a node
#                                mid-resize, restart it from disk, audit
#                                every acked write with no unreachability
#                                exemption) over the fixed seed list, the
#                                durability/replay/torn-file test suite
#                                under -race, then the rcubench recover
#                                experiment, emitting BENCH_PR8.json; fails
#                                if taking snapshots at a 100ms cadence dips
#                                writer throughput more than 10%
#   ./ci.sh full       tier-1 + tier-1.5 + chaos
set -eu

# Pinned lint-tier tool versions: bump deliberately, in their own commit.
STATICCHECK_VERSION=2025.1
GOVULNCHECK_VERSION=v1.1.4
TOOLBIN="$(cd "$(dirname "$0")" && pwd)/.cache/toolbin"

versions() {
	echo "--- $1: tool versions"
	go version
}

tier1() {
	versions tier-1
	echo '--- tier-1: go build ./...'
	go build ./...
	echo '--- tier-1: go vet ./...'
	go vet ./...
	echo '--- tier-1: rcuvet -time ./... (RCU/EBR invariant + dataflow-protocol analyzers)'
	if ! go build -o /tmp/rcuvet.ci ./cmd/rcuvet; then
		echo 'ci: cmd/rcuvet failed to build; the static-analysis gate cannot run.' >&2
		echo 'ci: fix the build (go build ./cmd/rcuvet) before merging.' >&2
		exit 1
	fi
	# No pipefail under `set -eu`, so capture to a file instead of piping:
	# a pipe into tee would mask rcuvet's exit status.
	if ! /tmp/rcuvet.ci -time ./... >/tmp/rcuvet.ci.out; then
		cat /tmp/rcuvet.ci.out
		offenders=$(sed -n 's/.*\[\([a-z]*\)\].*/\1/p' /tmp/rcuvet.ci.out | sort -u | tr '\n' ' ')
		echo "ci: rcuvet failed — offending analyzer(s): ${offenders:-unknown}" >&2
		echo 'ci: reproduce one in isolation with: go run ./cmd/rcuvet -only <name> ./...' >&2
		exit 1
	fi
	echo '--- tier-1: go test ./...'
	go test ./...
}

tier15() {
	versions tier-1.5
	echo '--- tier-1.5: go test -race -short ./...'
	go test -race -short ./...
}

lint() {
	versions lint
	mkdir -p "$TOOLBIN"
	for tool in "staticcheck honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" \
		"govulncheck golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"; do
		name=${tool%% *}
		spec=${tool#* }
		if [ ! -x "$TOOLBIN/$name" ]; then
			echo "--- lint: installing $spec into $TOOLBIN (one-time, cached)"
			if ! GOBIN="$TOOLBIN" go install "$spec"; then
				echo "ci: $name is not installed and could not be fetched (offline?)." >&2
				echo "ci: install it manually with: GOBIN=$TOOLBIN go install $spec" >&2
				exit 1
			fi
		fi
	done
	echo "--- lint: staticcheck ./... ($("$TOOLBIN/staticcheck" -version))"
	"$TOOLBIN/staticcheck" ./...
	echo "--- lint: govulncheck ./... ($("$TOOLBIN/govulncheck" -version | head -n 2 | tail -n 1))"
	"$TOOLBIN/govulncheck" ./...
	echo '--- lint: rcuvet -json -> RCUVET.json (archived next to the BENCH_*.json artifacts)'
	go build -o /tmp/rcuvet.ci ./cmd/rcuvet
	# Archive the machine-readable findings even when rcuvet fails: the
	# artifact is the point, the exit status still gates the tier.
	if /tmp/rcuvet.ci -json ./... >RCUVET.json; then
		echo 'lint: rcuvet clean (RCUVET.json holds an empty findings array)'
	else
		echo 'ci: rcuvet failed; findings archived in RCUVET.json' >&2
		exit 1
	fi
}

bench() {
	versions bench
	echo '--- bench: rcubench readscale -> BENCH_PR2.json'
	go run ./cmd/rcubench -experiment readscale \
		-locales 1 -read-tasks 1,2,4,8 -ops 65536 -reps 3 \
		-capacity 16384 -block 1024 \
		-out BENCH_PR2.json
}

obs() {
	versions obs
	# Read-path overhead A/B re-run at the PR 5 gate: obs.On() now also pays
	# the EBR reader (slot, site) annotation the stall watchdog attributes
	# culprits with, so the same -max-overhead budget gates the PR 10 read
	# path. The artifact moves to BENCH_PR10.json; BENCH_PR5.json stays the
	# pre-annotation baseline.
	echo '--- obs: rcubench observability overhead A/B (reader annotations on) -> BENCH_PR10.json'
	go run ./cmd/rcubench -experiment obs \
		-locales 2 -tasks 4 -ops 131072 -reps 3 \
		-capacity 65536 -block 1024 \
		-out BENCH_PR10.json -max-overhead 10
	echo '--- obs: 3-node traced workload -> CLUSTER_TRACE_PR10.json (flow-arrow / orphan-span gate)'
	go build -o /tmp/rcudist.ci ./cmd/rcudist
	/tmp/rcudist.ci -spawn 3 -grow 16384 -ops 2000 -resizes 4 \
		-trace-out CLUSTER_TRACE_PR10.json | tee /tmp/rcu_trace_run.txt
	awk '/^wrote .*flow_arrows=/ {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($i ~ /^flow_arrows=/)  { sub(/flow_arrows=/, "", $i);  flows = $i + 0 }
			if ($i ~ /^orphan_spans=/) { sub(/orphan_spans=/, "", $i); orphans = $i + 0 }
		}
	}
	END {
		if (!seen)      { print "ci: rcudist never reported trace stats" > "/dev/stderr"; exit 1 }
		if (flows < 1)  { printf "ci: merged trace has %d flow arrows, want >= 1\n", flows > "/dev/stderr"; exit 1 }
		if (orphans)    { printf "ci: merged trace has %d orphan spans, want 0\n", orphans > "/dev/stderr"; exit 1 }
		printf "obs: trace gate ok (%d flow arrows, 0 orphan spans)\n", flows
	}' /tmp/rcu_trace_run.txt
	# Watchdog false-positive gate: the chaos seed list with every node's
	# grace-period stall watchdog armed (-obs-dump arms it at 250ms). The
	# seed-rotated scenarios never hold a reader past the threshold, so any
	# warning is a false positive. Reproduce one seed with
	#   go run ./cmd/rcutorture -chaos -obs-dump -seed N
	OBS_SEEDS="1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24"
	echo "--- obs: watchdog false-positive gate over chaos seeds: $OBS_SEEDS"
	go build -o /tmp/rcutorture.ci ./cmd/rcutorture
	for s in $OBS_SEEDS; do
		/tmp/rcutorture.ci -chaos -obs-dump -seed "$s" -chaos-rounds 2 >/tmp/rcu_chaos_obs.txt 2>/dev/null || {
			cat /tmp/rcu_chaos_obs.txt
			echo "ci: chaos seed $s failed under armed watchdogs" >&2
			exit 1
		}
		warnings=$(sed -n 's/^chaos stall warnings: //p' /tmp/rcu_chaos_obs.txt)
		if [ "${warnings:-missing}" != 0 ]; then
			cat /tmp/rcu_chaos_obs.txt
			echo "ci: seed $s: watchdog fired $warnings false positive(s), want 0" >&2
			exit 1
		fi
	done
	echo 'obs: watchdog false-positive gate ok (0 warnings across all seeds)'
	# The induced stalled-reader round is the true-positive check: exactly one
	# warning naming the pinned (slot, site), plus a flight-recorder dump.
	echo '--- obs: induced stalled-reader round (true-positive check)'
	/tmp/rcutorture.ci -chaos -chaos-scenario stalled-reader -chaos-rounds 1 -seed 7 2>/dev/null
}

install() {
	versions install
	echo '--- install: rcubench incremental-install latency + tree-vs-flat sync -> BENCH_PR6.json'
	# Gate: install p99 at most 1/5 of BENCH_PR5.json's monolithic
	# core_resize_install_ns p99 (33554431 ns -> 6710886 ns), and the
	# hierarchical domain no slower at 1 locale / faster at 4.
	go run ./cmd/rcubench -experiment install \
		-locales 1,2,4 -tasks 2 -reps 3 -block 1024 \
		-install-p99-max 6710886 -install-baseline 33554431 \
		-out BENCH_PR6.json
}

serve() {
	versions serve
	echo '--- serve: comm allocation budgets (go test -bench -benchmem)'
	# Budgets are pinned at the PR 7 values; a regression that adds even one
	# allocation to the hot path (e.g. reintroducing per-call time.NewTimer,
	# which alone costs 3) fails the tier. Fixed -benchtime keeps the run fast
	# and the counts deterministic.
	go test ./internal/comm/ -run nomatch \
		-bench 'BenchmarkFrameEncode$|BenchmarkFrameEncodePut$|BenchmarkFrameDecodePooled$|BenchmarkGetRoundTrip$|BenchmarkPutRoundTrip$|BenchmarkGetPipelined32$' \
		-benchmem -benchtime 10000x | tee /tmp/rcu_alloc_bench.txt
	awk 'BEGIN {
		budget["BenchmarkFrameEncode"] = 0
		budget["BenchmarkFrameEncodePut"] = 0
		budget["BenchmarkFrameDecodePooled"] = 1
		budget["BenchmarkGetRoundTrip"] = 9
		budget["BenchmarkPutRoundTrip"] = 9
		budget["BenchmarkGetPipelined32"] = 8
	}
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		if (name in budget) {
			seen[name] = 1
			if ($7 + 0 > budget[name]) {
				printf "ci: %s at %s allocs/op exceeds budget %d\n", name, $7, budget[name]
				bad = 1
			}
		}
	}
	END {
		for (n in budget) if (!(n in seen)) {
			printf "ci: benchmark %s missing from output\n", n
			bad = 1
		}
		exit bad
	}' /tmp/rcu_alloc_bench.txt
	echo '--- serve: rcubench serve (batched A/B + open-loop SLO) -> BENCH_PR7.json'
	# Best-of-5 on the interleaved A/B arms and best-of-3 on the open-loop
	# window: on this shared 1-CPU host a single tens-of-ms hypervisor stall
	# lands on every queued open-loop arrival at once and alone blows a 1%
	# tail budget, so single-shot gates measure the noisiest coincidence,
	# not the serving stack.
	go run ./cmd/rcubench -experiment serve \
		-serve-nodes 3 -serve-keys 65536 -serve-qps 20000 -serve-duration 3s \
		-serve-callers 8 -ops 4096 -reps 5 -serve-reps 3 \
		-serve-min-speedup 2 -serve-p99-max 20ms -serve-max-burn 1 \
		-out BENCH_PR7.json
}

chaos() {
	versions chaos
	# Fixed seed list: every run is reproducible with
	#   go run ./cmd/rcutorture -chaos -seed N
	CHAOS_SEEDS="1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24"
	echo "--- chaos: rcutorture -chaos, seeds: $CHAOS_SEEDS"
	go build -o /tmp/rcutorture.ci ./cmd/rcutorture
	for s in $CHAOS_SEEDS; do
		echo "--- chaos: seed $s"
		/tmp/rcutorture.ci -chaos -seed "$s" -chaos-rounds 4
	done
	echo '--- chaos: go test -run Chaos -race -short ./...'
	go test -run Chaos -race -short ./...
}

recover() {
	versions recover
	# Same fixed seed list as the chaos tier, but every round is forced to
	# the recover scenario so each seed exercises a full snapshot ->
	# kill-mid-resize -> restart-from-disk -> rejoin-and-audit cycle.
	# Reproduce any failure with
	#   go run ./cmd/rcutorture -chaos -chaos-scenario recover -seed N
	RECOVER_SEEDS="1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24"
	echo "--- recover: rcutorture -chaos -chaos-scenario recover, seeds: $RECOVER_SEEDS"
	go build -o /tmp/rcutorture.ci ./cmd/rcutorture
	for s in $RECOVER_SEEDS; do
		echo "--- recover: seed $s"
		/tmp/rcutorture.ci -chaos -chaos-scenario recover -seed "$s" -chaos-rounds 3
	done
	echo '--- recover: go test -race durability/replay/torn-file suite'
	go test -race -run 'Durable|ReplayState|Snapshot|WAL|Torn|^TestFence' ./internal/dist/ ./internal/durable/
	echo '--- recover: rcubench snapshot-under-load + restart timing -> BENCH_PR8.json'
	# The bench paces full-cluster snapshot sweeps at a fixed 100ms cadence
	# rather than back-to-back: on this shared 1-CPU host a zero-pause
	# snapshot loop only measures how the core and the disk queue divide
	# between a 100%-duty fsync loop and the writers (pure resource
	# sharing), not whether Snapshot's cut stalls writers, which is what
	# the gate is after.
	go run ./cmd/rcubench -experiment recover \
		-recover-nodes 3 -recover-blocks 12 -recover-writers 4 \
		-recover-ops 25000 -reps 3 -recover-max-dip 10 \
		-out BENCH_PR8.json
}

case "${1:-tier1}" in
tier1) tier1 ;;
race) tier15 ;;
lint) lint ;;
bench) bench ;;
obs) obs ;;
install) install ;;
serve) serve ;;
chaos) chaos ;;
recover) recover ;;
full)
	tier1
	tier15
	chaos
	;;
*)
	echo "usage: $0 [tier1|race|lint|bench|obs|install|serve|chaos|recover|full]" >&2
	exit 2
	;;
esac
echo OK
