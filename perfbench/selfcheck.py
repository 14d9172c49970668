"""Quick self-check of the benchmark: every workload at tiny size, both modes.

Asserts that each run prints, as its last line, every metric BENCHMARK.json
names for that mode, with the unit BENCHMARK.json gives, as a finite number,
and that no operation failed. Takes about a minute.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout

import run


def check(spec: dict, workload: str, trace: int) -> None:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    where = f"{workload} --trace {trace}"
    assert code == 0, f"{where}: exit code {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["failed"] == 0 and result["correct"], f"{where}: {result['failed']} failed ops"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    assert set(printed) == set(expected), f"{where}: metrics differ: {set(printed) ^ set(expected)}"
    for name, unit in expected.items():
        value = printed[name]["value"]
        assert printed[name]["unit"] == unit, f"{where}: {name} unit {printed[name]['unit']!r}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name} = {value!r}"
    print(f"ok  {where}: {len(printed)} metrics, {result['attempted']} ops, 0 failed")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS), f"BENCHMARK.json workloads {names}"
    for workload in names:
        for trace in (0, 1):
            check(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
