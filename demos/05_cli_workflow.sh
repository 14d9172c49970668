#!/bin/sh
# End-to-end command-line workflow on the bundled synthetic digits:
# train a net, prove robustness at a small radius, find a concrete
# counterexample at a large one, abstract under an accuracy floor, try
# lifting, and produce the benchmark report.
#
# Lifting succeeds when the network carries genuinely redundant neurons
# (see demos/04_pipeline_report.py); on this compact trained net the
# interval proofs on the abstraction already fail at this radius, so there
# is nothing to lift and lifted verdicts here stay "unknown" - which is the
# honest answer.
#
# Run:  sh demos/05_cli_workflow.sh
set -e

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
data="--format synthetic --synthetic-count 400 --data-seed 0"

echo "== train =="
python3 -m abstractnet train $data --arch 32 --epochs 25 --learning-rate 0.01 \
    --seed 0 --out "$dir/net.json"

echo "== verify the first three inputs at radius 0.01 (expect: robust) =="
python3 -m abstractnet verify $data --net "$dir/net.json" \
    --count 3 --delta 0.01

echo "== radius 0.8 with counterexample search (expect: not_robust + witness) =="
python3 -m abstractnet verify $data --net "$dir/net.json" \
    --input 0 --delta 0.8 --falsify --samples 2000 | python3 -c '
import json, sys
line = json.loads(sys.stdin.read())
w = line.pop("witness", None)
print(json.dumps(line))
print("witness found:", w is not None)'

echo "== abstract (accuracy floor 0.85) =="
python3 -m abstractnet abstract $data --net "$dir/net.json" --alpha 0.85 \
    --seed 0 --out "$dir/record.json"

echo "== lift attempts on the abstraction =="
python3 -m abstractnet lift $data --record "$dir/record.json" \
    --count 3 --delta 0.01

echo "== benchmark report =="
python3 -m abstractnet bench $data --net "$dir/net.json" --alpha 0.85 \
    --count 10 --delta 0.01 --seed 0
