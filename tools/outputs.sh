#!/bin/sh
# Write the outputs whose bytes a kernel change must keep into DIR:
# exp1 and exp2 at their defaults for seeds 0-2, an eg-pm/hd-polyak/grid
# exp1, a short 300x500 exp1 of all six methods (600 kept iterations: two
# whole replay stretches of 256 and a partial one), a traced CLI solve
# of the seed-0 exp1 instance, and the analysis layer: project and bias
# from exp(-6) ones on exp2's dense seed-0 instance, project from there on
# the sparse seed-2 instance, project from exp(-50) ones on the sparse
# seed-0 instance and from exp(-73.7) ones on the dense seed-1 instance
# (exp2's 1e-32 start), bias on the n = 12 worst-case construction,
# instability at alpha = 1 on the dense seed-0 instance, and rate-cert on
# a square 20x20 dense instance, whose planted z is its unique solution.
# It also writes the sha256 of a, b and planted of the 1000x2000
# instance that perfbench's large-certified workload solves at seed 1.
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
entmd exp1 --m 300 --n 500 --sparsity 30 --iters 600 --extra-iters 100 \
    --methods md-constant-grid,md-backtracking,md-polyak,hd-polyak,hd-plus-polyak,eg-pm \
    --out "$out/exp1_300x500" > /dev/null
PYTHONPATH="$root/src" python3 -c "
import sys
from entmd import InstanceSpec, gen_instance
from entmd.cli import save_instance
for spec, path in zip([InstanceSpec(60, 100, 10, seed=0), InstanceSpec(60, 100, None, seed=0),
                       InstanceSpec(60, 100, 10, seed=2), InstanceSpec(20, 20, None, seed=0),
                       InstanceSpec(60, 100, None, seed=1)], sys.argv[1:]):
    save_instance(gen_instance(spec), path)
" "$out/instance.json" "$out/dense_seed0.json" "$out/sparse_seed2.json" "$out/square20_seed0.json" \
    "$out/dense_seed1.json"
PYTHONPATH="$root/src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 python3 -c "
import hashlib
from entmd import InstanceSpec, gen_instance
p = gen_instance(InstanceSpec(1000, 2000, 100, seed=1))
for name in ('a', 'b', 'planted'):
    print(hashlib.sha256(getattr(p, name).tobytes()).hexdigest(), name)
" > "$out/instance_1000x2000_seed1.sha256"
mkdir -p "$out/solve"
# solve exits with 2 when its budget runs out and 3 on a breakdown; 1 is an error
rc=0
entmd solve "$out/instance.json" --trace "$out/solve/trace.csv" --out "$out/solve/x.json" \
    --format json > "$out/solve/stdout.json" || rc=$?
[ "$rc" -ne 1 ]
mkdir -p "$out/analysis"
entmd project "$out/dense_seed0.json" --eta 6 > "$out/analysis/project_dense_seed0.txt"
entmd bias "$out/dense_seed0.json" --eta 6 > "$out/analysis/bias_dense_seed0.txt"
entmd project "$out/sparse_seed2.json" --eta 6 > "$out/analysis/project_sparse_seed2.txt"
# project exits with 2 where the projection raises, with the reason on stderr; 1 is an error
for case in "instance.json 50 project_sparse_seed0_eta50" "dense_seed1.json 73.7 project_dense_seed1_eta73.7"; do
    set -- $case
    rc=0
    entmd project "$out/$1" --eta "$2" > "$out/analysis/$3.txt" 2> "$out/analysis/$3.err" || rc=$?
    echo "exit $rc" >> "$out/analysis/$3.txt"
    [ "$rc" -ne 1 ]
done
entmd bias --construct 12 10 > "$out/analysis/bias_construct_12.txt"
entmd instability "$out/dense_seed0.json" --alpha 1 > "$out/analysis/instability_dense_seed0.txt"
entmd rate-cert "$out/square20_seed0.json" > "$out/analysis/rate_cert_square20_seed0.txt"
