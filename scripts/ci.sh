#!/usr/bin/env bash
# Continuous-integration entry point: tier-1 test suite + CLI smoke.
#
# Usage: scripts/ci.sh
# Runs from any working directory; exits non-zero on first failure.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== tier-1: unit + integration + property tests ==="
python -m pytest -x -q

echo
echo "=== verify: numerical conformance catalog (compiled kernels) ==="
python scripts/verify_numerics.py --seed 1234 --out artifacts/verify_report.json

echo
echo "=== verify: numerical conformance catalog (numpy fallbacks) ==="
REPRO_XBAR_CKERNELS=0 python scripts/verify_numerics.py --seed 1234 \
    --out artifacts/verify_report_nockernels.json

echo
echo "=== CLI smoke: info ==="
python -m repro info

echo
echo "=== CLI smoke: nf (1 sample) ==="
python -m repro nf --samples 1

echo
echo "=== CLI smoke: reliability --fast ==="
python -m repro reliability --fast --rates 0,0.05 --drift-times 1e4

echo
echo "=== obs smoke: traced experiment + schema validation + summary ==="
python -m repro table3 --fast --task cifar10 --obs=artifacts/runs/ci-obs
python -m repro obs validate artifacts/runs/ci-obs
python -m repro obs summarize artifacts/runs/ci-obs > /dev/null

echo
echo "=== parallel smoke: 2-worker traced run + bit-identity tests ==="
python -m repro table3 --fast --task cifar10 --workers 2 \
    --obs=artifacts/runs/ci-obs-parallel
python -m repro obs validate artifacts/runs/ci-obs-parallel
python -m pytest -x -q tests/test_parallel.py -k identical
python -m repro cache stats

echo
echo "=== int8 smoke: quantized table3 + 2-worker bit-identity run ==="
python -m repro table3 --fast --task cifar10 --int8 --obs=artifacts/runs/ci-int8
python -m repro obs validate artifacts/runs/ci-int8
python -m repro table3 --fast --task cifar10 --int8 --workers 2

echo
echo "=== drift smoke: recalibration scheduler + schema validation ==="
python -m repro drift --fast --no-staleness --obs=artifacts/runs/ci-drift \
    | tee artifacts/runs/ci-drift-stdout.txt
python -m repro obs validate artifacts/runs/ci-drift
grep -E "scheduler: .*recalibrations=[1-9]" artifacts/runs/ci-drift-stdout.txt \
    > /dev/null || { echo "ci: drift smoke never recalibrated"; exit 1; }

echo
echo "=== serve smoke: micro-batching server + coalescing identity ==="
# In-process server under concurrent closed-loop clients: every
# response must be bit-identical to per-request serial inference and
# the micro-batcher must actually coalesce (efficiency > 1).
python -m repro serve --fast --demo 4 --clients 3 \
    --tenants "fp=32x32_100k,q=32x32_100k+int8" \
    --obs=artifacts/runs/ci-serve | tee artifacts/runs/ci-serve-stdout.txt
python -m repro obs validate artifacts/runs/ci-serve
grep -E "coalescing identity: ([0-9]+)/\1 " artifacts/runs/ci-serve-stdout.txt \
    > /dev/null || { echo "ci: serve smoke lost coalescing identity"; exit 1; }
grep -E "batching_efficiency=(1\.[0-9]*[1-9]|[2-9]|[1-9][0-9])" \
    artifacts/runs/ci-serve-stdout.txt \
    > /dev/null || { echo "ci: serve smoke never coalesced a batch"; exit 1; }
python -m pytest -x -q -m serve
python -m repro obs tail artifacts/runs/ci-serve --no-follow > /dev/null

echo
echo "=== lanes smoke: multi-lane serving ==="
# A 2-lane traced demo: responses stay bit-identical to serial
# inference and every serve_batch event carries its lane.
python -m repro serve --fast --demo 4 --clients 3 --lanes 2 \
    --tenants "fp=32x32_100k,q=32x32_100k+int8" \
    --obs=artifacts/runs/ci-serve-lanes \
    | tee artifacts/runs/ci-serve-lanes-stdout.txt
python -m repro obs validate artifacts/runs/ci-serve-lanes
grep -E "coalescing identity: ([0-9]+)/\1 " \
    artifacts/runs/ci-serve-lanes-stdout.txt \
    > /dev/null || { echo "ci: 2-lane serve lost coalescing identity"; exit 1; }

echo
echo "=== live serve smoke: /metrics scrape + top --once + SIGTERM drain ==="
# Boot a real TCP server with the Prometheus listener, scrape it over
# plain HTTP, render the dashboard once, then check SIGTERM drains.
python -m repro serve --fast --port 0 --metrics-port 0 \
    --tenants "fp=32x32_100k+p99=60000" \
    > artifacts/runs/ci-serve-live-stdout.txt 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 240); do
    grep -q "serving \[fp\]" artifacts/runs/ci-serve-live-stdout.txt && break
    sleep 0.5
done
grep -q "serving \[fp\]" artifacts/runs/ci-serve-live-stdout.txt \
    || { echo "ci: live serve never came up"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
SERVE_PORT=$(sed -nE 's/.*serving \[fp\] on 127\.0\.0\.1:([0-9]+).*/\1/p' \
    artifacts/runs/ci-serve-live-stdout.txt)
METRICS_URL=$(sed -nE 's#metrics on (http://[^ ]+/metrics).*#\1#p' \
    artifacts/runs/ci-serve-live-stdout.txt)
python - "$METRICS_URL" <<'EOF'
import sys, urllib.request
text = urllib.request.urlopen(sys.argv[1], timeout=10).read().decode()
assert "repro_" in text, f"no repro_ metrics in scrape: {text[:200]!r}"
print(f"scraped {len(text)} bytes of Prometheus text")
EOF
python -m repro top --port "$SERVE_PORT" --once
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "serve shutdown: drained" artifacts/runs/ci-serve-live-stdout.txt \
    || { echo "ci: live serve did not drain on SIGTERM"; exit 1; }

echo
echo "ci: all checks passed"
