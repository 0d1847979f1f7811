#!/usr/bin/env bash
# Every stou command runs numpy's BLAS on one thread, so the BLAS thread
# variables must not change its outputs.  For each coverage method this
# runs a small experiment at OPENBLAS_NUM_THREADS=1 and =4, checks that
# manifest.txt records one thread, and compares the two estimates.csv
# byte for byte; it compares the field files of `stou simulate --method
# exact`, whose draw runs each predictor row as one product broadcast over
# the fields, the same way, and the interval files of `stou ci` with each
# bootstrap simulator (the grid at its default depth) on that field.  It
# does so on an odd and an even number of sites per row, the two shapes
# of the exact factor's mirror split.  Under numpy 1.x it checks the
# plain-OpenBLAS setter names.  Run it from the repository root:
#     bash .github/check-blas-threads.sh
# Outputs go under $RUNNER_TEMP, or a new temporary directory that is
# removed when the script exits.
set -euo pipefail
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi
for nx in 33 34; do
  for method in mc-exact mc-grid cl-sandwich; do
    for threads in 1 4; do
      out="$tmp/blas-$nx-$method-$threads"
      OPENBLAS_NUM_THREADS=$threads PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m stou.cli coverage --method "$method" --nx "$nx" --nt 33 \
        --n-datasets 10 --B 20 --seed 5 --workers 1 --out-dir "$out" > /dev/null
      grep -qx "blas_threads: 1" "$out/manifest.txt"
    done
    cmp "$tmp/blas-$nx-$method-1/estimates.csv" "$tmp/blas-$nx-$method-4/estimates.csv"
  done
  for threads in 1 4; do
    OPENBLAS_NUM_THREADS=$threads PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
      python -m stou.cli simulate --method exact --nx "$nx" --nt 33 --seed 5 \
      --out "$tmp/blas-$nx-simulate-$threads.csv"
  done
  cmp "$tmp/blas-$nx-simulate-1.csv" "$tmp/blas-$nx-simulate-4.csv"
  for method in mc-exact mc-grid; do
    for threads in 1 4; do
      OPENBLAS_NUM_THREADS=$threads PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m stou.cli ci --method "$method" --field "$tmp/blas-$nx-simulate-1.csv" \
        --dx 0.05 --dt 0.05 --B 20 --seed 5 --out "$tmp/blas-$nx-ci-$method-$threads.csv" \
        > /dev/null
    done
    cmp "$tmp/blas-$nx-ci-$method-1.csv" "$tmp/blas-$nx-ci-$method-4.csv"
  done
done
echo "BLAS thread variables do not change outputs"
