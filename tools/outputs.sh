#!/bin/sh
# Write the outputs whose bytes a kernel change must keep into DIR:
# exp1 and exp2 at their defaults for seeds 0-2, an eg-pm/hd-polyak/grid
# exp1, and a traced CLI solve of the seed-0 exp1 instance.
#
#   tools/outputs.sh DIR
#
# Run it in two checkouts and compare the directories with `diff -r`.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
entmd() {
    PYTHONPATH="$root/src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 -m entmd.cli "$@"
}
for seed in 0 1 2; do
    entmd exp1 --seed "$seed" --out "$out/exp1_seed$seed" > /dev/null
    entmd exp2 --seed "$seed" --out "$out/exp2_seed$seed" > /dev/null
done
entmd exp1 --methods eg-pm,hd-polyak,md-constant-grid --out "$out/exp1_mix" > /dev/null
PYTHONPATH="$root/src" python3 -c "
import sys
from entmd import InstanceSpec, gen_instance
from entmd.cli import save_instance
save_instance(gen_instance(InstanceSpec(60, 100, 10, seed=0)), sys.argv[1])
" "$out/instance.json"
mkdir -p "$out/solve"
# solve exits with 2 when its budget runs out and 3 on a breakdown; 1 is an error
rc=0
entmd solve "$out/instance.json" --trace "$out/solve/trace.csv" --out "$out/solve/x.json" \
    --format json > "$out/solve/stdout.json" || rc=$?
[ "$rc" -ne 1 ]
