"""Benchmark for gjmsdet: end-to-end timings per workload, per-layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Each pass runs in a fresh worker process (worker.py), one after another:
a closed loop with one client.  A run keeps starting passes while the next
one is expected to finish within ``--seconds``, then tops the set-up samples
up (to at least three and 8 s in all) with set-up-only workers.  With
``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric: pass and item times in units of a calibration
kernel run beside them (``wall_cal``, ``item_p50_cal``, ``item_p90_cal``;
see worker.Calibrator), set-up time at the kernel's reference speed, and
peak memory.  With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics.  A
full record, with provenance and the raw clock readings, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.

``--workload all`` runs every workload in turn and prints each metric by
name with its unit.  ``--size tiny`` and ``--corrupt`` exist for
selftest.py.  The run exits non-zero, printing no result, when the package
sources are missing or a worker fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import threading
import time

import worker as w
from tracer import layer_shares

# Set-up samples per run: at least this many, and this much set-up in all.
MIN_SETUPS = 3
MIN_SETUP_TOTAL_S = 8.0
# setup_s is set-up time in kernel runs times this: seconds at the speed the
# kernel runs at on an idle core of the machine the benchmark was built on
CAL_REF_S = 0.5e-3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DIGITS_VAR = "GJMSDET_DIGITS"


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop(DIGITS_VAR, None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(args, mode: str):
    """Run one worker; return (set-up figures, pass result or None)."""
    cmd = [sys.executable, str(w.BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--size", args.size]
    if args.corrupt:
        cmd.append("--corrupt")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                          cwd=w.ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise BenchError(f"worker {' '.join(cmd[1:])} exited {proc.returncode}")
    cal = json.loads(ready[len("READY "):])
    setup = {"wall_s": setup_s, "cal": (setup_s - cal["cal_total_s"]) / cal["cal_s"]}
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def measure(args) -> dict:
    """Run passes until the time is spent; return raw per-pass results."""
    modes = ("pass", "traced") if args.trace else ("pass",)
    passes = {mode: [] for mode in modes}
    setups: list[dict] = []
    last: dict[str, float] = {}
    deadline = time.perf_counter() + args.seconds

    def setups_due() -> int:
        typical = statistics.median(s["wall_s"] for s in setups)
        return max(MIN_SETUPS, math.ceil(MIN_SETUP_TOTAL_S / typical))

    for mode in itertools.cycle(modes):
        if all(passes.values()):
            probes_left = max(0, setups_due() - len(setups) - 1)
            need = last[mode] + probes_left * statistics.median(s["wall_s"] for s in setups)
            if time.perf_counter() + need > deadline:
                break
        t0 = time.perf_counter()
        setup, result = spawn(args, mode)
        last[mode] = time.perf_counter() - t0
        setups.append(setup)
        passes[mode].append(result)
    while len(setups) < setups_due():
        setups.append(spawn(args, "setup")[0])
    return {"passes": passes, "setups": setups}


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wall_cal(runs: list[dict]) -> float:
    return statistics.median(r["wall_cal"] for r in runs)


def end_to_end(raw: dict) -> dict:
    """Medians over the run's untraced passes (item percentiles pooled over
    them) and over all its set-ups."""
    runs = raw["passes"]["pass"]
    items_cal = [t for r in runs for t in r["item_cal"]]
    return {
        "wall_cal": (wall_cal(runs), "cal"),
        "item_p50_cal": (_pct(items_cal, 50), "cal"),
        "item_p90_cal": (_pct(items_cal, 90), "cal"),
        "setup_s": (CAL_REF_S * statistics.median(s["cal"] for s in raw["setups"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def timings(raw: dict) -> dict:
    """Raw clock readings, for the record: medians over the untraced passes,
    item percentiles pooled over them.  Not in BENCHMARK.json: see README.md."""
    runs = raw["passes"]["pass"]
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    items_ms = [1e3 * t for r in runs for t in r["item_s"]]
    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "cal_ms": 1e3 * med("cal_s"),
        "item_p50_ms": _pct(items_ms, 50),
        "item_p90_ms": _pct(items_ms, 90),
        "setup_wall_s": statistics.median(s["wall_s"] for s in raw["setups"]),
    }


def _layers_one(r: dict) -> dict:
    tr, cache = r["trace"], r["cache_delta"]
    s = lambda name: tr["self_s"].get(name, 0.0)  # noqa: E731
    calls = lambda name: cache[name]["hits"] + cache[name]["misses"]  # noqa: E731
    out = {
        "norlund.d_norlund.self_s": (s("norlund.d_norlund"), "s"),
        "norlund.d_norlund.calls": (calls("norlund.d_norlund"), "count"),
        "norlund.d_norlund.cache_misses": (cache["norlund.d_norlund"]["misses"], "count"),
        "closed_form.f_odd.self_s": (s("closed_form.f_odd"), "s"),
        "closed_form.f_odd.cache_misses": (cache["closed_form.f_odd"]["misses"], "count"),
        "closed_form.logdet_gjms.self_s": (s("closed_form.logdet_gjms"), "s"),
        "closed_form.logdet_gjms.calls": (calls("closed_form.logdet_gjms"), "count"),
        "closed_form.logdet_gjms.cache_hits": (cache["closed_form.logdet_gjms"]["hits"], "count"),
        "product_rules.logdet_via_product.self_s": (s("product_rules.logdet_via_product"), "s"),
        "closed_form.evaluate.self_s": (s("closed_form.evaluate"), "s"),
        "closed_form.evaluate.calls": (tr["calls"].get("closed_form.evaluate", 0), "count"),
        "closed_form.zeta_odd.self_s": (s("closed_form.zeta_odd"), "s"),
        "closed_form.zeta_odd.cache_misses": (cache["closed_form.zeta_odd"]["misses"], "count"),
        "quadrature.logdet_quadrature_result.self_s":
            (s("quadrature.logdet_quadrature_result"), "s"),
        "quadrature.logdet_factor_quadrature.self_s":
            (s("quadrature.logdet_factor_quadrature"), "s"),
        "quadrature.integrand.self_s": (s("quadrature.integrand"), "s"),
        "quadrature.integrand_calls": (tr["calls"].get("quadrature.integrand", 0), "count"),
        "quadrature.integrand_points": (tr["integrand_points"], "count"),
        "quadrature.neval": (tr["neval"], "count"),
        "quadrature.max_rel_dev": (tr["max_rel_dev"], "1"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "zexpr.render.self_s": (s("zexpr.render"), "s"),
    }
    for layer, share in layer_shares(tr["self_s"], r["wall_s"]).items():
        out[f"share.{layer}"] = (share, "1")
    return out


def per_layer(raw: dict) -> dict:
    traced = [_layers_one(r) for r in raw["passes"]["traced"]]
    out = {name: (statistics.median(t[name][0] for t in traced), unit)
           for name, (_, unit) in traced[0].items()}
    passes = raw["passes"]
    out["trace.overhead_frac"] = (wall_cal(passes["traced"]) / wall_cal(passes["pass"]) - 1, "1")
    return out


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout.  Git
    looks no higher than the repository root, so a checkout that is not a
    repository does not report an enclosing one's commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(w.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=w.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, raw: dict) -> dict:
    first = next(r for rs in raw["passes"].values() for r in rs)
    size = w.SIZES[args.size]
    params = {"size": args.size, "d_max": size[args.workload], "seconds": args.seconds}
    if args.workload == "warm_queries":
        params["queries"] = size["queries"]
    env = worker_env()
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
        "traced": bool(args.trace),
        "corrupt": args.corrupt,
        "versions": first["versions"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "worker_env": {var: env.get(var) for var in THREAD_VARS + (DIGITS_VAR,)},
    }


def run_one(args) -> dict:
    raw = measure(args)
    all_runs = [r for rs in raw["passes"].values() for r in rs]
    attempted = sum(r["attempted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    untraced = raw["passes"]["pass"]
    record = {
        "provenance": provenance(args, raw),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(raw["passes"].get("traced", [])),
            "setups": len(raw["setups"]),
            "items": sum(len(r["item_s"]) for r in untraced),
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "timings": timings(raw),
        "failures": [f for r in all_runs for f in r["failures"]][:20],
    }
    w.OUT_DIR.mkdir(exist_ok=True)
    path = w.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=w.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(w.SIZES), default="full")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (w.SRC / "gjmsdet" / "__init__.py").is_file():
        print(f"perfbench: no gjmsdet sources under {w.SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            record = run_one(args)
            print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        for workload in w.WORKLOADS:
            record = run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
            samples = ", ".join(f"{k}={v}" for k, v in record["samples"].items())
            print(f"{workload}: failed_frac={record['failed_frac']:.4g} "
                  f"({record['failed']}/{record['attempted']}); samples: {samples}")
            for name, m in record["metrics"].items():
                print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
            for name, value in record["timings"].items():
                print(f"  {name:<44} {value:>14.6g} (record only)")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
