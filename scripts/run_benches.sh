#!/usr/bin/env sh
# Run every tier-2 perf bench, then the benchmark of record (perfbench/:
# its own tests and one untraced run of each workload, fleet-tick and
# offline, whose reports each end in one JSON line), and diff the fresh
# recordings against the committed baselines with scripts/compare_bench.py.
#
# Usage, from the repository root:
#
#   sh scripts/run_benches.sh            # all perf benches + regression diff
#   sh scripts/run_benches.sh --no-diff  # record only, skip the differ
#
# Fresh recordings land in benchmarks/output/perf_*.json.  The differ
# compares each against its git-committed counterpart (the baseline of
# record), so run this before committing updated numbers: a clean run
# means every pinned speedup and samples/s throughput is within the 20%
# allowance of the baseline.
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

PERF_BENCHES="
benchmarks/test_ml_microbench.py
benchmarks/test_pipeline_end_to_end.py
benchmarks/test_perf_obs.py
benchmarks/test_perf_serve.py
benchmarks/test_perf_daemon.py
benchmarks/test_perf_columnar.py
benchmarks/test_perf_wal.py
benchmarks/test_perf_learn.py
benchmarks/test_chaos_serve.py
benchmarks/test_compare_bench.py
"

# shellcheck disable=SC2086  # word splitting of the file list is wanted
python -m pytest $PERF_BENCHES -q -m tier2

python3 -m pytest perfbench/tests -q
python3 perfbench/run.py --workload fleet-tick --trace 0
python3 perfbench/run.py --workload offline --trace 0

[ "${1:-}" = "--no-diff" ] && exit 0

status=0
for fresh in benchmarks/output/perf_*.json; do
    if git cat-file -e "HEAD:$fresh" 2>/dev/null; then
        echo "== compare_bench: $fresh vs HEAD"
        git show "HEAD:$fresh" > "${fresh}.baseline"
        python scripts/compare_bench.py "${fresh}.baseline" "$fresh" \
            || status=1
        rm -f "${fresh}.baseline"
    else
        echo "== compare_bench: $fresh has no committed baseline, skipping"
    fi
done
exit "$status"
