#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

    python3 e2ebench/selftest.py

Checks the output schema and metric-name grammar of ``run.py`` in both
modes, that the correctness gate goes red on a corrupted expected value,
and that the command fails without a result outside a full checkout.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(proc, declared: list[dict]) -> None:
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is (result["failed"] == 0)
    names = {entry["name"]: entry["unit"] for entry in declared}
    assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), f"bad metric name {name!r}"
        assert set(metric) == {"value", "unit"}, metric
        assert metric["unit"] == names[name] and UNIT.match(metric["unit"])
        assert isinstance(metric["value"], (int, float)), metric


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"]), entry

    for workload in ("smoke", "service"):
        for trace in ("0", "1"):
            proc = bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            check_schema(proc, spec["per_layer" if trace == "1" else "end_to_end"])
            print(f"ok: {workload} --trace {trace} schema")

    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        expected = json.loads((HERE / "expected.json").read_text())
        expected["independent_optimum"]["2"]["weight"] = 7
        corrupted = scratch / "expected.json"
        corrupted.write_text(json.dumps(expected))
        proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--expected", str(corrupted))
        assert proc.returncode != 0, "gate stayed green on a corrupted optimum"
        assert result_of(proc)["correct"] is False
        assert "expected weight 7" in proc.stderr, proc.stderr
        print("ok: gate goes red on a corrupted expected value")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "prove", "--seed", "3", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: fails without a result outside a full checkout")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
