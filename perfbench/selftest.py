"""Self-test of the benchmark at tiny sizes, about two minutes.

    python3 perfbench/selftest.py

Checks, for every workload:

* an untraced run reports exactly the end-to-end metrics BENCHMARK.json
  names, with their units, and a traced run exactly the per-layer ones;
* the result file records the sample counts and the provenance;
* all outputs pass their checks, and a deliberately corrupted run fails
  some (``failed`` rises above 0);

and that in a directory holding only BENCHMARK.json and the benchmark, the
run exits non-zero without printing a result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import subprocess

import worker as w

SPEC = json.loads((w.ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str, cwd=w.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_of(run(workload, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
        record = json.loads((w.OUT_DIR / f"{workload}-seed7-trace{trace}.json").read_text())
        samples = record["samples"]
        assert samples["passes"] >= 1 and samples["setups"] >= 3, samples
        assert samples["items"] == samples["passes"] * len(w.make_items(workload, 7, "tiny"))
        assert (samples["traced_passes"] >= 1) == bool(trace), samples
        prov = record["provenance"]
        assert prov["seed"] == 7 and prov["traced"] == bool(trace), prov
        assert {"commit", "versions", "nproc", "cpu_model", "worker_env", "params"} <= set(prov)

    bad = result_of(run(workload, 0, "--corrupt"))
    assert not bad["correct"] and bad["failed"] > 0, bad
    print(f"ok   {workload}: metric names, samples, provenance; corrupted run failed "
          f"{bad['failed']}/{bad['attempted']}")


def check_bare_directory() -> None:
    bare = w.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(w.ROOT / "BENCHMARK.json", bare)
    for path in w.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run("exact_grid", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok   bare directory: exit", proc.returncode, "and no result")


def main() -> int:
    for workload in w.WORKLOADS:
        check_workload(workload)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
