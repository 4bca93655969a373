#!/usr/bin/env bash
# Run CI's command list, plus the CLI's info/demo/observe commands, the
# dashboard's --watch replay, a --json campaign summary and the examples,
# with the reach hook loaded into every interpreter, and write the calls
# it saw under OUT (default reach-out/).  The tier-1 suite is left out:
# a function only tests call is not reached.
#
#   tools/reach/run.sh [OUT]
#   python tools/reach/report.py --reach OUT
#
# CLI commands run in a scratch directory, so the files they write stay
# out of the tree.  The pytest benches run with --benchmark-disable: with
# benchmarking on, pytest-benchmark switches the profile hook off around
# every benchmarked call.  Under the hook every call is slower, so the
# perf gates' timing verdicts are not checked here; every other command
# must succeed.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/../.." && pwd)
OUT=$(realpath -m "${1:-reach-out}")
rm -rf "$OUT"
mkdir -p "$OUT"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

export REACH_OUT="$OUT"
export PYTHONPATH="$ROOT/tools/reach:$ROOT/src"
repro() { (cd "$WORK" && exec python -m repro.cli "$@"); }
bench_pytest() { (cd "$ROOT" && python -m pytest -q -p no:cacheprovider --benchmark-disable "$@"); }

# CLI commands outside CI
repro info
repro demo-smp 20
repro demo-sti7200 20
repro observe > /dev/null
for example in "$ROOT"/examples/*.py; do
  case "$(basename "$example")" in
    mjpeg_smp.py) args=(6) ;;
    mjpeg_sti7200.py) args=(4) ;;
    *) args=() ;;
  esac
  (cd "$WORK" && python "$example" "${args[@]}" > /dev/null)
done

# test job: the perf gates (timing verdicts not checked under the hook)
bench_pytest benchmarks/test_perf_gates.py || true

# paper-tables and ablations jobs
bench_pytest benchmarks/test_table*.py benchmarks/test_figure*.py
bench_pytest benchmarks/test_ablation_*.py

# trace-smoke and shard-smoke jobs
repro trace --images 6
for n in 1 2 4; do repro run --images 6 --shards $n; done
for n in 1 2 4; do repro run --images 6 --shards $n --metrics m$n.json; done
repro trace --images 4 --shards 2 --out TRACE_shard2

# scale-smoke job
for n in 1 2 4; do repro run --workload traffic --components 1000 --shards $n; done

# metrics-smoke job
(cd "$WORK" && python - <<'EOF'
from repro.metrics.export import metrics_digest, read_metrics, to_prometheus
assert metrics_digest(read_metrics("m1.json")) == metrics_digest(read_metrics("m2.json"))
to_prometheus(read_metrics("m1.json"))
EOF
)
repro faults --seed 1 --images 8 --recover --metrics chaos_metrics.prom
repro top --images 4
repro top --images 4 --watch --interval 0 > /dev/null

# bench-smoke job
bench_pytest bench
(cd "$ROOT" && python -m bench run --smoke --out "$WORK/bench-smoke.json")

# chaos job, at one of its seeds
repro faults --seed 1 --images 8
repro campaign run sharded --seeds 1 --policies recover --shards 2,4 --images 8
repro faults --seed 1 --images 10 --recover --durable state --kill9 2
repro recover verify state
repro recover ls state
repro recover dump state --limit 20

# campaign-smoke job, with the orchestrator killed once a cell is durable
ARGS=(--seeds 1,7,42 --classes crash,drop --intensities light
      --policies restart,degrade --shards 1,2 --images 4 --workers 2)
repro campaign run witness "${ARGS[@]}"
# exec: $! must be the orchestrator's own pid, as in CI
(cd "$WORK" && exec python -m repro.cli campaign run victim "${ARGS[@]}") &
pid=$!
for _ in $(seq 1 2000); do
  if compgen -G "$WORK/victim/cells/*.json" > /dev/null; then break; fi
  sleep 0.01
done
kill -9 $pid 2> /dev/null || true
wait $pid || true
repro campaign ls victim
repro campaign resume victim "${ARGS[@]}"
cmp "$WORK/witness/aggregate.json" "$WORK/victim/aggregate.json"
repro campaign report witness
repro campaign report witness --json > /dev/null
repro campaign run witness "${ARGS[@]}" --json > /dev/null

echo "reach files: $(ls "$OUT" | wc -l) under $OUT"
