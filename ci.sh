#!/usr/bin/env sh
# Minimal CI gate for the easched workspace. Run from the repo root.
#
# Mirrors the tier-1 acceptance commands (build + root-package tests) and
# adds the full workspace test suite, formatting, and lints.
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> chaos matrix: release, full desktop suite"
cargo test -q --release --test chaos

echo "==> examples smoke: the three narrated demonstrations run as shipped"
# No arguments: the gates are the easched subcommands and the seed-matrix
# tests below; these only have to run to completion.
for example in chaos_runtime self_healing multi_tenant; do
    cargo run --release --example "$example" > /dev/null
done

echo "==> telemetry smoke: drift study emits CSV"
cargo run --release -p easched-bench --bin figures -- --out target/ci-results telemetry > /dev/null
test -s target/ci-results/telemetry.csv

echo "==> figures: every file of \`figures all\`, \`ablations\` and \`chaos\` regenerates byte-identically to results/"
# The harness is deterministic, so a byte of difference is a behaviour
# change in the scheduler, the simulator, a workload or the five-scheme
# comparison. `all` writes 48 figure files, each compared here, and a
# SUMMARY.md that lists only this run's experiments (the committed one
# also covers ablations and chaos). fig1 and both table1 files are the
# graph workloads' outputs; fig4 (the activation dip) and tdp (the 45 W
# cap) are the ones whose PCU frequency factors leave 1.
rm -rf target/ci-figures
cargo run --release -p easched-bench --bin figures -- --out target/ci-figures all > /dev/null
test "$(ls target/ci-figures | grep -vcx SUMMARY.md)" -eq 48
for f in target/ci-figures/*; do
    name=${f##*/}
    [ "$name" = SUMMARY.md ] || cmp "$f" "results/$name"
done
# The seven ablation studies and the chaos matrix have no wall-clock input
# either: their 16 files (≈200 s on two cores) are compared the same way.
cargo run --release -p easched-bench --bin figures -- --out target/ci-figures ablations chaos > /dev/null
test "$(ls target/ci-figures | grep -cE '^(ablation-.*|chaos)\.(csv|md)$')" -eq 16
for f in target/ci-figures/ablation-* target/ci-figures/chaos.*; do
    cmp "$f" "results/${f##*/}"
done
# The comparison's replays, a run log's parse chunks and a fleet's node
# phases are pool jobs on available_parallelism() workers, which honours
# the affinity mask: one CPU, one worker, the jobs on the caller's thread.
taskset -c 0 cargo test -q -p easched-core -p easched-replay --lib -- \
    schemes::tests::comparison_equals_the_one_assembled_replay_by_replay \
    log::tests::chunked_parse_equals_the_serial_loop_under_every_mutation
taskset -c 0 cargo test -q --release -p easched-fleet --test wire_bytes
# record_trace spreads a long invocation over cpus() workers; on one CPU
# cpus() is 1 and every recording, and Mandelbrot's reference fill, runs
# inline on the caller's thread. This release line is also the one that
# runs mandelbrot::tests::interior_never_lies, the dense-grid sweep of
# the cardioid/disc shortcut that a debug build ignores (≈5 s).
taskset -c 0 cargo test -q --release -p easched-kernels
# On one CPU a ring-sink writer preempted between claim and publish is the
# common case, and the writers a lap behind it must wait for it, not drop
# or miscount: the 8-thread hammer again, every thread on that CPU.
taskset -c 0 cargo test -q --release -p easched-telemetry --test contention

echo "==> storm chaos: hang + power-surge storm, release"
cargo test -q --release --test selfheal

# Torn-tail probe (DESIGN.md §12): `head -n` cuts of a recorded storm log —
# one mid-invocation (ending on a `step` line), one right after a
# `decision` line — must replay their sealed prefix and exit 0.
torn_probe() {
    for kind in step decision; do
        cut=$(grep -n "^$kind " "$1" | sed -n '20p' | cut -d: -f1)
        head -n "$cut" "$1" > target/ci-torn.runlog
        ./target/release/easched replay --log target/ci-torn.runlog > /dev/null 2>&1
    done
}

echo "==> replay smoke: record a chaos storm, replay must be byte-identical"
./target/release/easched record --out target/ci-replay.runlog --seed 7 > /dev/null
./target/release/easched replay --log target/ci-replay.runlog
torn_probe target/ci-replay.runlog

echo "==> torn tails: every line cut of a v1 and a v2 storm log replays its prefix"
cargo test -q --release -p easched-replay --test torn_tails

echo "==> replay bisect: perturbed log must diverge and shrink to a reproducer"
if ./target/release/easched replay --log target/ci-replay.runlog \
    --perturb 40 --bisect --emit-fixture target/ci-replay-min.runlog > target/ci-bisect.out; then
    echo "perturbed replay did not diverge -- the reporter is broken"
    exit 1
fi
grep -q "first divergent decision" target/ci-bisect.out
test -s target/ci-replay-min.runlog

echo "==> overload replay: record one overloaded run, byte-identical via easched replay"
./target/release/easched record --out target/ci-overload.runlog --overload --seed 7 > /dev/null
./target/release/easched replay --log target/ci-overload.runlog
torn_probe target/ci-overload.runlog

echo "==> observability plane: live scrape during a storm + SLO exemplar replay"
rm -f target/ci-serve.out
./target/release/easched serve --addr 127.0.0.1:0 --seed 7 --ticks 32 \
    --out target/ci-serve.runlog --trace target/ci-serve.trace.json \
    --hold 20 > target/ci-serve.out 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q '^serving on http://' target/ci-serve.out 2>/dev/null && break
    sleep 0.2
done
SERVE_ADDR=$(sed -n 's|^serving on http://||p' target/ci-serve.out | head -n 1)
test -n "$SERVE_ADDR"
./target/release/easched scrape --addr "$SERVE_ADDR" --path /metrics > target/ci-serve-metrics.txt
./target/release/easched scrape --addr "$SERVE_ADDR" --path /health > target/ci-serve-health.txt
./target/release/easched scrape --addr "$SERVE_ADDR" --path /slo > target/ci-serve-slo.txt
grep -q '^easched_invocations_total' target/ci-serve-metrics.txt
grep -q '^easched_slo_breaches_total' target/ci-serve-metrics.txt
grep -q '^easched_build_info{' target/ci-serve-metrics.txt
grep -q '^easched_uptime_seconds' target/ci-serve-metrics.txt
# /metrics is composed from the counts' owners: registry, scheduler
# (health, store, drift), frontend (admission controller, SLO tracker).
grep -q '^easched_tenant_requests_shed_total{tenant=' target/ci-serve-metrics.txt
grep -q '^easched_brownout_level ' target/ci-serve-metrics.txt
grep -q '^easched_store_bytes ' target/ci-serve-metrics.txt
grep -q '"fault_free"' target/ci-serve-health.txt
grep -q '"burn_threshold"' target/ci-serve-slo.txt
# Wait for the post-storm artifacts (run log, then span trace) so a
# breach exemplar can be replayed to its slice.
for _ in $(seq 1 150); do
    grep -q '^span trace written' target/ci-serve.out 2>/dev/null && break
    sleep 0.2
done
# The storm is over and the server still holds. The SLO tracker's breach
# count must equal the events /slo lists (under its 256-event retention
# cap).
./target/release/easched scrape --addr "$SERVE_ADDR" --path /metrics > target/ci-serve-metrics.txt
./target/release/easched scrape --addr "$SERVE_ADDR" --path /slo > target/ci-serve-slo.txt
SLO_EVENTS=$(grep -o '"exemplar_offset"' target/ci-serve-slo.txt | wc -l)
awk -v slo_events="$SLO_EVENTS" '
    /^#/ { next }
    { split($1, name, "{"); value[name[1]] += $2; seen[name[1]] = 1 }
    END {
        if (!seen["easched_slo_breaches_total"] || value["easched_slo_breaches_total"] != slo_events) {
            print "/metrics easched_slo_breaches_total " value["easched_slo_breaches_total"] \
                " != /slo events " slo_events
            bad = 1
        }
        exit bad
    }' target/ci-serve-metrics.txt
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_OFFSET=$(sed -n 's/.*--at \([0-9]*\)$/\1/p' target/ci-serve.out | head -n 1)
test -n "$SERVE_OFFSET"
./target/release/easched replay --log target/ci-serve.runlog --at "$SERVE_OFFSET" > /dev/null
grep -q '"cat":"span"' target/ci-serve.trace.json

echo "==> fleet chaos matrix: 3-node convergence under drops/dups/reorder/partition"
for seed in 7 23 1009; do
    echo "    fleet --seed $seed"
    rm -rf "target/ci-fleet-$seed.d"
    ./target/release/easched fleet --seed "$seed" \
        --store "target/ci-fleet-$seed.d" \
        --record "target/ci-fleet-$seed.runlog" > /dev/null
done

echo "==> fleet kill -9: SIGKILL a live fleet, every journal must recover clean"
rm -rf target/ci-fleet-crash.d
# One completed run seeds the stores; the long run then dies mid-flight.
./target/release/easched fleet --seed 7 --quiet-fabric --ticks 3 \
    --store target/ci-fleet-crash.d > /dev/null
# 100000 ticks run ~40 s, and the kill may not fail: this is the only
# SIGKILL smoke, so it must land on a live process.
./target/release/easched fleet --seed 7 --quiet-fabric --ticks 100000 \
    --store target/ci-fleet-crash.d > /dev/null 2>&1 &
FLEET_PID=$!
sleep 2
kill -9 "$FLEET_PID"
wait "$FLEET_PID" 2>/dev/null || true
./target/release/easched fleet --verify-recovery target/ci-fleet-crash.d

echo "==> fleet replay: recorded chaos run must be byte-identical"
./target/release/easched fleet --replay target/ci-fleet-7.runlog
head -n 10 target/ci-fleet-7.runlog > target/ci-torn.runlog
./target/release/easched fleet --replay target/ci-torn.runlog > /dev/null 2>&1
# The wrong subcommand is unusable input (2), and says where to go.
code=0
./target/release/easched replay --log target/ci-fleet-7.runlog 2> target/ci-fleet-wrong.err || code=$?
test "$code" -eq 2
grep -q "fleet --replay" target/ci-fleet-wrong.err
# So is a flag of another subcommand, and the message names both.
code=0
./target/release/easched list --nodes 0 > /dev/null 2> target/ci-foreign-flag.err || code=$?
test "$code" -eq 2
grep -q -e "easched list.*--nodes" target/ci-foreign-flag.err

echo "==> fleet at scale: 300 nodes converge and replay byte-identically"
# A round sends each node's pull to two seeded peers, so frames grow
# linearly in the fleet and news spreads in O(log n) rounds. `fleet`
# exits 1 when the drain budget runs out before the replicas agree.
./target/release/easched fleet --nodes 300 --seed 7 --ticks 10 \
    --record target/ci-fleet-300.runlog > /dev/null
./target/release/easched fleet --replay target/ci-fleet-300.runlog
# Recorded with every worker, replayed with one: node jobs may not move
# a byte.
taskset -c 0 ./target/release/easched fleet --replay target/ci-fleet-300.runlog

echo "==> storage chaos: every-fault-point sweep (DESIGN.md §16)"
cargo test -q --release -p easched-core --test storage_chaos

echo "==> storage chaos: a journal append is O(1) amortised in table size (DESIGN.md §11)"
# Grows a store to 16 384 kernels and counts bytes: snapshots plus put
# lines stay under 3x the put lines alone. The grep fails the stage if the
# name stops matching, instead of passing on zero tests.
cargo test -q --release -p easched-core --lib -- --exact \
    journal::tests::an_append_costs_constant_bytes_amortised_whatever_the_table_size \
    | grep -q '^test result: ok. 1 passed'

echo "==> storage chaos: seeded write-fault storms under every node's journal"
# The 8-thread shared-store storm is storage_chaos.rs's; this is the
# binary's half: the run exits 0 and what reached disk audits clean (each
# node's shutdown checkpoint gets a bounded retry, so none ends empty).
for seed in 7 23 1009; do
    echo "    fleet --chaos-fs 150 --seed $seed"
    rm -rf "target/ci-schaos-$seed.d"
    ./target/release/easched fleet --seed "$seed" --chaos-fs 150 \
        --store "target/ci-schaos-$seed.d" > /dev/null 2>&1
    ./target/release/easched fleet --verify-recovery "target/ci-schaos-$seed.d" > /dev/null
done

echo "==> storage chaos: recorded run under injected faults replays byte-identically"
./target/release/easched record --out target/ci-schaos.runlog --seed 7 --chaos-fs 150 > /dev/null
./target/release/easched replay --log target/ci-schaos.runlog

echo "==> storage chaos: fleet on failing disks converges, records, replays"
./target/release/easched fleet --seed 7 --chaos-fs 200 --crash 1:2:4 \
    --record target/ci-schaos-fleet.runlog > /dev/null
./target/release/easched fleet --replay target/ci-schaos-fleet.runlog

echo "==> storage chaos: real ENOSPC on a full tmpfs (skipped without mount privileges)"
ENOSPC_DIR=target/ci-enospc-mnt
rm -rf "$ENOSPC_DIR"; mkdir -p "$ENOSPC_DIR"
if mount -t tmpfs -o size=256k tmpfs "$ENOSPC_DIR" 2>/dev/null; then
    # Seed durable state while the disk has room, then fill the device
    # solid: the next run hits genuine ENOSPC on every journal write.
    # `--chaos-fs 0` injects nothing but enables the tolerant
    # checkpoint path — the run must survive (degrade-to-memory), and
    # once the filler is gone, recovery must audit the seeded state.
    ./target/release/easched fleet --nodes 1 --store "$ENOSPC_DIR/table.d" \
        > /dev/null 2>&1 || { umount "$ENOSPC_DIR"; exit 1; }
    dd if=/dev/zero of="$ENOSPC_DIR/filler" bs=1k count=300 2>/dev/null || true
    ./target/release/easched fleet --nodes 1 --store "$ENOSPC_DIR/table.d" \
        --chaos-fs 0 > /dev/null 2>&1 || {
        echo "run on a full tmpfs must not fail hard"
        umount "$ENOSPC_DIR"; exit 1
    }
    rm -f "$ENOSPC_DIR/filler"
    ./target/release/easched fleet --verify-recovery "$ENOSPC_DIR/table.d" \
        > /dev/null || { umount "$ENOSPC_DIR"; exit 1; }
    umount "$ENOSPC_DIR"
    echo "    ENOSPC smoke passed"
else
    echo "    tmpfs mount unavailable; skipped"
fi

echo "==> benchmark package: spec <-> BENCHMARK.json check and lane unit tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark workloads: every workload's output checks gate CI"
# Each run checks its own output and exits nonzero when a check fails.
# sched_*: decide count equals the closed form, one ring record per
# invocation, alpha on the 0.1 grid, the store reopens to exactly the
# final table. fleet_gossip: converged, one digest, the same digest every
# unit. replay_storm: the log parses back whole and replays identically.
# tenant_storm: queues bounded, the same counts every unit, the last log
# replays byte-identically. paper_suite: the rows equal results/fig9.csv.
for w in sched_miss sched_hit sched_durable tenant_storm replay_storm fleet_gossip paper_suite; do
    echo "    benchmark/run.sh --workload $w"
    bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace 0 > /dev/null
done

echo "==> decide by lookup: table and search agree to the bit (release: the dense rho sweep)"
# Debug builds re-run the search behind every lookup (every stage above
# that ran a debug test was an equivalence check on its own traffic);
# this is the sweep too dense for one.
cargo test -q --release -p easched-core --test decide_lookup

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: every warning fails the build, broken intra-doc links included"
# The vendored stand-ins are excluded: proptest's trips rustdoc on its own
# `vec` fn/macro ambiguity.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q \
    --exclude rand --exclude proptest

echo "==> house rules: what clippy.toml and the compiler cannot state"
# Rules clippy states exactly are not here: the root clippy.toml refuses
# a second call site of the α search, a line split by hand and an argv or
# environment read outside the two `main`s; each library crate's
# `#![deny(clippy::print_stdout, clippy::print_stderr)]` refuses printing.
# Each row below is a command that prints every offending line, then
# ` ;; ` and why such a line is refused. A row passes when it prints
# nothing.
persist_formats() {
    # persist.rs outside its tests: no `format!`/`write!` but its Display
    # impl and its error messages.
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^impl fmt::Display/ { display = 1 }
        display { if (/^}/) display = 0; next }
        /(format|write)!\(/ && !/Err\(format!\(/ { print FILENAME ":" FNR ": " $0 }
    ' crates/core/src/persist.rs
}
s5_undeclared() {
    # Backticked dotted or snake_case names in EXPERIMENTS.md §5 that are
    # not a "name" in BENCHMARK.json (and the section must cite some).
    names=$(sed -n '/^## §5 /,/^## Shared kernel table/p' EXPERIMENTS.md \
        | grep -o '`[a-z0-9_]*[._][a-z0-9_.]*`' | tr -d '`' | sort -u)
    [ -n "$names" ] || echo "EXPERIMENTS.md §5 cites no lane"
    for name in $names; do
        grep -q "\"name\": \"$name\"" BENCHMARK.json || echo "EXPERIMENTS.md §5: $name"
    done
}
broken=0
while IFS= read -r row; do
    offenders=$(eval "${row%% ;; *}" || true)
    if [ -n "$offenders" ]; then
        printf '%s\n' "$offenders"
        echo "house rule broken: ${row#* ;; }"
        broken=1
    fi
done <<'ROWS'
grep -rnE 'ConcurrentScheduler|schedule_shared|Shared<' crates src tests examples ;; a second scheduling trait, adapter or shared entry point: Scheduler and SharedEas::schedule are the one seam (DESIGN.md §8)
grep -rnE 'health_state\(\)\.stats|merge_store_health|StoreSeries|StoreMode' crates src ;; a count copied into another owner's table: each count has one owner (DESIGN.md §10)
grep -rhoE '= "easched_[a-z_]+"' crates | sort | uniq -d ;; a series name declared twice: each easched_* name is one counter_table! row (DESIGN.md §10)
persist_formats ;; persist.rs builds a line by hand: LineWriter writes every record, Fields reads it (DESIGN.md §12)
grep '^name = ' Cargo.lock | grep -v -e '"easched' -e '"rand"' -e '"proptest"' ;; a package beyond the workspace and the two vendored stand-ins: a bench harness besides benchmark/, or a dependency an offline build cannot fetch (DESIGN.md §7)
s5_undeclared ;; EXPERIMENTS.md §5 cites a lane, metric or workload BENCHMARK.json does not declare
grep -nE -e '--example [a-z_]+ +--' -e 'examples/[a-z_]+ +[^>|&;]' ci.sh ;; ci.sh hands an example an argument: gates live in easched and the tests, seed matrices in tests
grep -nE '^ *pub mod ' crates/*/src/lib.rs | grep -vE -e '^crates/kernels/src/lib.rs:[0-9]+:pub mod suite;$' -e '^crates/runtime/src/lib.rs:[0-9]+:pub mod (scheduler|vfs);$' -e '^crates/replay/src/lib.rs:[0-9]+:pub mod overload;$' ;; a public module is a second path to every public item in it, and unreachable_pub cannot see behind it: a crate's API is its root pub use list (DESIGN.md §8; the four exceptions are what benchmark/src imports by module path)
grep -rnE 'pub use easched_[a-z_]+ as ' crates src examples tests | grep -v '^src/lib.rs:' ;; a crate re-exported inside another is a second path to every public item in it: only the root facade src/lib.rs re-exports the workspace crates (DESIGN.md §8)
ROWS
test "$broken" -eq 0

echo "==> model file round trip: characterize --save, run --model, a flipped digit is refused"
./target/release/easched characterize --save target/ci-model.txt > /dev/null
./target/release/easched run --workload MB --model target/ci-model.txt > /dev/null
# Flip the first digit of the first curve's coefficients.
awk '!done && /^curve / {
    at = index($0, " coeffs ") + 8
    while (substr($0, at, 1) !~ /[0-9]/) at++
    $0 = substr($0, 1, at - 1) (substr($0, at, 1) + 1) % 10 substr($0, at + 1)
    done = 1
} { print }' target/ci-model.txt > target/ci-model-flipped.txt
! cmp -s target/ci-model.txt target/ci-model-flipped.txt
code=0
./target/release/easched run --workload MB --model target/ci-model-flipped.txt \
    > /dev/null 2> target/ci-model.err || code=$?
test "$code" -eq 1
grep -q "checksum mismatch" target/ci-model.err

echo "CI green."
