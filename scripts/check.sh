#!/usr/bin/env bash
# Repo gate: formatting, lints, the full test suite (including the
# fault-injection and fuzzing harnesses), resilience/determinism smoke runs
# of the real binary, benchmark regression gates, and a short fuzz
# campaign.
#
# Usage: ./scripts/check.sh [--quick|--full] [STEP...]
#
#   --quick      lint + tests only (the pre-commit gate)
#   --full       everything (the default; what CI runs across its jobs)
#   STEP...      run only the named steps: lint test smoke bench fuzz
#
# The script is TTY-free (no colors, no interactivity) and honors
# CARGO_TARGET_DIR for the release binaries it invokes.
set -euo pipefail
cd "$(dirname "$0")/.."

target_dir="${CARGO_TARGET_DIR:-target}"
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-never}"

mode=full
steps=()
for arg in "$@"; do
  case "$arg" in
    --quick) mode=quick ;;
    --full) mode=full ;;
    lint|test|smoke|bench|fuzz) steps+=("$arg") ;;
    *)
      echo "unknown argument: $arg" >&2
      echo "usage: $0 [--quick|--full] [lint|test|smoke|bench|fuzz ...]" >&2
      exit 2
      ;;
  esac
done
if [ "${#steps[@]}" -eq 0 ]; then
  if [ "$mode" = quick ]; then
    steps=(lint test)
  else
    steps=(lint test smoke bench fuzz)
  fi
fi

want() {
  local s
  for s in "${steps[@]}"; do [ "$s" = "$1" ] && return 0; done
  return 1
}

run_cli() {
  cargo run --offline -q -p rowfpga-cli -- "$@"
}

if want lint; then
  echo "== cargo fmt --check"
  cargo fmt --all -- --check

  echo "== cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets --offline -- -D warnings

  echo "== rowfpga lint (domain lints: hot-path, determinism, panic budget)"
  run_cli lint
fi

if want test; then
  echo "== cargo test"
  cargo test --workspace --offline -q

  echo "== cargo test (fault injection: engine self-repair suite)"
  cargo test -p rowfpga-core --features fault-inject --offline -q

  echo "== cargo test (fault injection: fuzz-harness detection suite)"
  cargo test -p rowfpga-verify --features fault-inject --offline -q

  echo "== observability smoke (journal -> tail -> analyze)"
  obs_dir="$(mktemp -d)"
  run_cli bench s1 --fast --journal "$obs_dir/run.jsonl" > /dev/null
  run_cli tail "$obs_dir/run.jsonl" --no-follow > "$obs_dir/tail.out"
  grep -q "done (converged)" "$obs_dir/tail.out" \
    || { echo "FAIL: tail did not render run completion"; exit 1; }
  run_cli analyze "$obs_dir/run.jsonl" --out "$obs_dir" --quiet \
    > "$obs_dir/analyze.out"
  grep -q "analysis written to" "$obs_dir/analyze.out" \
    || { echo "FAIL: analyze produced no report"; exit 1; }
  test -s "$obs_dir/run.folded" \
    || { echo "FAIL: analyze wrote no folded-stack profile"; exit 1; }
  rm -rf "$obs_dir"

  echo "== parse-error smoke (a flag of another subcommand exits 2 before any file is read)"
  parse_err="$(mktemp)"
  for args in "layout x.net --start 3" "bench cse --blif"; do
    status=0
    # shellcheck disable=SC2086 # split the invocation into its arguments
    run_cli $args > /dev/null 2> "$parse_err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q "unknown flag" "$parse_err"; then
      echo "FAIL: \`rowfpga $args\` exited $status, want 2 with \"unknown flag\":"
      cat "$parse_err"
      exit 1
    fi
  done
  rm -f "$parse_err"
fi

smoke_dir=""
if want smoke || want fuzz || want bench; then
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "$smoke_dir"' EXIT
fi

if want smoke; then
  echo "== resilience smoke (2 s deadline -> checkpoint -> resume)"
  run_cli generate \
    --cells 120 --inputs 8 --outputs 8 --seq 6 --seed 7 \
    -o "$smoke_dir/smoke.net"
  run_cli generate \
    --cells 160 --inputs 8 --outputs 8 --seq 6 --seed 7 \
    -o "$smoke_dir/deadline.net"
  # A full-effort debug run on the 160-cell design takes 12.2 s on a
  # 2-vCPU VM (the 120-cell one 6.9 s), so a runner several times faster
  # still trips the deadline, which must degrade gracefully and leave a
  # final checkpoint.
  run_cli layout "$smoke_dir/deadline.net" \
    --deadline 2 --checkpoint "$smoke_dir/smoke.ckpt" \
    > "$smoke_dir/smoke.out"
  cat "$smoke_dir/smoke.out"
  grep -q "stop: deadline" "$smoke_dir/smoke.out" \
    || { echo "FAIL: 2 s deadline did not stop the run"; exit 1; }
  grep -q '"format": *"rowfpga-checkpoint"' "$smoke_dir/smoke.ckpt" \
    || { echo "FAIL: no valid checkpoint after deadline stop"; exit 1; }
  # The checkpoint must load and resume (a zero deadline proves loading
  # without paying for the rest of the anneal).
  run_cli layout "$smoke_dir/deadline.net" \
    --resume "$smoke_dir/smoke.ckpt" --deadline 0 \
    > "$smoke_dir/resume.out"
  cat "$smoke_dir/resume.out"
  grep -q "stop: deadline" "$smoke_dir/resume.out" \
    || { echo "FAIL: checkpoint did not resume"; exit 1; }

  echo "== parallel determinism smoke (2 replicas, identical layouts)"
  run_cli layout "$smoke_dir/smoke.net" \
    --fast --seed 5 --threads 2 | sed 's/ in [0-9.]*m\?s / /' \
    > "$smoke_dir/par1.out"
  run_cli layout "$smoke_dir/smoke.net" \
    --fast --seed 5 --threads 2 | sed 's/ in [0-9.]*m\?s / /' \
    > "$smoke_dir/par2.out"
  diff "$smoke_dir/par1.out" "$smoke_dir/par2.out" \
    || { echo "FAIL: two-replica layout not reproducible"; exit 1; }
  grep -q "routed: true" "$smoke_dir/par1.out" \
    || { echo "FAIL: two-replica layout left nets unrouted"; exit 1; }

  echo "== parallel resilience smoke (2 replicas: 2 s deadline -> checkpoint -> resume)"
  run_cli layout "$smoke_dir/deadline.net" --threads 2 \
    --deadline 2 --checkpoint "$smoke_dir/par.ckpt" \
    > "$smoke_dir/par-deadline.out"
  cat "$smoke_dir/par-deadline.out"
  grep -q "stop: deadline" "$smoke_dir/par-deadline.out" \
    || { echo "FAIL: 2 s deadline did not stop the two-replica run"; exit 1; }
  grep -q '"format": *"rowfpga-checkpoint"' "$smoke_dir/par.ckpt" \
    || { echo "FAIL: no valid checkpoint after the two-replica deadline stop"; exit 1; }
  run_cli layout "$smoke_dir/deadline.net" --threads 2 \
    --resume "$smoke_dir/par.ckpt" --deadline 0 \
    > "$smoke_dir/par-resume.out"
  cat "$smoke_dir/par-resume.out"
  grep -q "stop: deadline" "$smoke_dir/par-resume.out" \
    || { echo "FAIL: two-replica checkpoint did not resume"; exit 1; }

  echo "== serve smoke (daemon, deadline job, SIGTERM drain, resumable spool)"
  cargo build --offline -q -p rowfpga-cli
  serve_sock="$smoke_dir/serve.sock"
  serve_spool="$smoke_dir/spool"
  "$target_dir/debug/rowfpga" serve \
    --socket "$serve_sock" --spool "$serve_spool" \
    > "$smoke_dir/serve.out" &
  serve_pid=$!
  for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.1; done
  [ -S "$serve_sock" ] || { echo "FAIL: daemon socket never appeared"; exit 1; }
  # Graceful degradation over the wire: the 2 s budget expires mid-anneal
  # and the job *completes* with its best-so-far layout.
  "$target_dir/debug/rowfpga" submit "$smoke_dir/deadline.net" \
    --socket "$serve_sock" --deadline 2 --wait --timeout 300 \
    > "$smoke_dir/submit.out"
  cat "$smoke_dir/submit.out"
  grep -q "stop: deadline" "$smoke_dir/submit.out" \
    || { echo "FAIL: service job did not degrade at its deadline"; exit 1; }
  "$target_dir/debug/rowfpga" jobs --socket "$serve_sock" \
    > "$smoke_dir/jobs.out"
  grep -q "done" "$smoke_dir/jobs.out" \
    || { echo "FAIL: jobs did not list the finished job"; exit 1; }
  # Leave a second job in flight so the drain has work to checkpoint.
  "$target_dir/debug/rowfpga" submit "$smoke_dir/smoke.net" \
    --socket "$serve_sock" --seed 9 > /dev/null
  sleep 1
  kill -TERM "$serve_pid"
  wait "$serve_pid" \
    || { cat "$smoke_dir/serve.out"
         echo "FAIL: SIGTERM drain exited non-zero"; exit 1; }
  grep -q "drained:" "$smoke_dir/serve.out" \
    || { echo "FAIL: daemon wrote no drain summary"; exit 1; }
  # The drained spool is resumable: the interrupted job is durably queued
  # (a daemon restart on this spool would pick it straight back up).
  grep -q '"state":"queued"' "$serve_spool/jobs/job-000002/job.json" \
    || { echo "FAIL: drained spool did not persist the in-flight job as queued"; exit 1; }
fi

if want bench; then
  echo "== bench smoke (throughput vs committed artifacts, >20% gates)"
  # Release build: the committed numbers were measured in release, and the
  # gates compare against them. Quick regenerations land in the temp dir —
  # the committed artifacts under results/ are the recorded baselines and
  # only change when a PR deliberately re-records them.
  cargo build --release --offline -q -p rowfpga-bench
  "$target_dir/release/move_throughput" --quick \
    --out "$smoke_dir/BENCH_move_throughput.json" \
    --check results/BENCH_move_throughput.json
  "$target_dir/release/e2e" --quick \
    --out "$smoke_dir/BENCH_e2e.json" \
    --check results/BENCH_e2e_quick.json
  # The service load generator asserts internally that every job reaches
  # `done` under queueing and preemption; there is no throughput gate
  # because turnaround is dominated by the job mix, not the engine.
  "$target_dir/release/serve" --quick \
    --out "$smoke_dir/BENCH_service.json"
  echo "== perfbench tests (traced run = untraced, probe replays apply_move, pinned inputs)"
  # perfbench is a workspace of its own with its own lock file; building
  # it into the shared target dir keeps build output out of perfbench/.
  CARGO_TARGET_DIR="$target_dir" cargo test --release --offline --locked -q \
    --manifest-path perfbench/Cargo.toml
fi

if want fuzz; then
  echo "== fuzz smoke (3 seeds x 20 s differential fuzzing)"
  cargo build --release --offline -q -p rowfpga-cli
  for seed in 1 2 3; do
    "$target_dir/release/rowfpga" fuzz --seconds 20 --seed "$seed" \
      --max-cells 120 --corpus "$smoke_dir/corpus" \
      > "$smoke_dir/fuzz$seed.out" \
      || { cat "$smoke_dir/fuzz$seed.out"
           echo "FAIL: fuzz seed $seed found violations"; exit 1; }
    tail -n 1 "$smoke_dir/fuzz$seed.out"
  done
  if [ -d "$smoke_dir/corpus" ] && [ -n "$(ls -A "$smoke_dir/corpus")" ]; then
    echo "FAIL: fuzz smoke left repros in the corpus"; exit 1
  fi
fi

echo "All checks passed."
