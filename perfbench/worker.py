"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|traced|setup
                                [--size full|tiny] [--corrupt]

``run.py`` starts this script once per pass, so every pass begins with cold
caches.  The worker imports ``gjmsdet`` from the ``src`` directory next to
this benchmark (never an installed copy), does the workload's set-up, prints
the line ``READY`` with the set-up's calibration figures, runs one pass and
prints one JSON object with the pass's timings, per-item times and check
results.  Outputs are checked after the timed region.  Set-up and passes
run a calibration kernel beside the work (see Calibrator).  ``--mode setup``
stops after ``READY``.  ``--mode traced``
wraps the layer boundaries in spans (see tracer.py) and adds per-layer
figures.  ``--corrupt`` deliberately damages results so that the checks can
be shown to catch it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("exact_grid", "exact_column", "crosscheck", "warm_queries")

# Largest odd dimension per workload, and the warm_queries stream length.
SIZES = {
    "full": {"exact_grid": 61, "exact_column": 251, "crosscheck": 41,
             "warm_queries": 61, "queries": 2000},
    "tiny": {"exact_grid": 11, "exact_column": 21, "crosscheck": 9,
             "warm_queries": 11, "queries": 60},
}
FORMATS = ("plain", "latex", "json")
VALUE_DIGITS = 30
# Quadrature rows: the CLI's own absolute gate, plus a relative gate.  The
# printed columns carry 13 significant digits, so rounding alone stays
# below 5e-13 relative.
ABS_GATE = 1e-9
REL_GATE = 1e-10
# Set-up and passes run a fixed kernel between items, once per this much
# item time, to measure the CPU's speed beside the work (see Calibrator).
CAL_EVERY_S = 0.02
# Kernel runs at the start and at the end of set-up.
SETUP_CAL_RUNS = 15
# An item's time is divided by the mean of this many kernel runs nearest to it.
CAL_NEAREST = 6


def pairs_upto(d_max: int) -> list[tuple[int, int]]:
    """Every (d, k) with odd 3 <= d <= d_max and 1 <= k <= (d-1)/2, in CLI order."""
    return [(d, k) for d in range(3, d_max + 1, 2) for k in range(1, (d - 1) // 2 + 1)]


def make_items(workload: str, seed: int, size: str) -> list[tuple]:
    """The workload's inputs; the same seed always gives the same list."""
    d_max = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_grid":
        items = pairs_upto(d_max)
        rng.shuffle(items)
    elif workload == "exact_column":
        # d = 3 mod 4: item d builds Norlund rows (d-3)/2 and (d-1)/2, which
        # no other item needs.  Ascending, not shuffled: the items still share
        # the Bernoulli numbers and zeta values, and in shuffled order which
        # item pays for them would depend on the seed.
        items = [(d, 1) for d in range(3, d_max + 1, 4)]
    elif workload == "crosscheck":
        items = pairs_upto(d_max)  # the CLI fixes the order
    else:
        pairs = pairs_upto(d_max)
        items = [rng.choice(pairs) + (rng.choice(FORMATS),)
                 for _ in range(SIZES[size]["queries"])]
    return items


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)


def import_package():
    """Import gjmsdet from ``src`` next to the benchmark, or exit non-zero."""
    if not (SRC / "gjmsdet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gjmsdet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gjmsdet
    import gjmsdet.cli  # noqa: F401  (not imported by the package itself)

    if Path(gjmsdet.__file__).resolve().parent != SRC / "gjmsdet":
        sys.exit(f"perfbench: imported gjmsdet from {gjmsdet.__file__}, not {SRC}")
    return gjmsdet


def package_caches() -> dict:
    """Every lru_cache defined in a module of the package, by qualified name."""
    caches = {}
    for path in sorted((SRC / "gjmsdet").glob("[!_]*.py")):
        mod = importlib.import_module(f"gjmsdet.{path.stem}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                caches[f"{path.stem}.{name}"] = obj
    return caches


def cold_errors(pkg, caches) -> list[str]:
    """Reasons the package's memo tables are not empty (empty list = cold)."""
    errors = [f"{name} not cold: {fn.cache_info()}" for name, fn in caches.items()
              if fn.cache_info()[:2] != (0, 0) or fn.cache_info().currsize]
    if len(pkg.exact._BERNOULLI) != 1:
        errors.append(f"exact._BERNOULLI holds {len(pkg.exact._BERNOULLI)} entries")
    return errors


def _kernel() -> None:
    """Fixed pure-Python work: exact rational arithmetic and a dict, like the
    package's own hot paths.  About half a millisecond."""
    a = Fraction(1)
    table = {}
    for i in range(1, 120):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
        table[i, i & 7] = a


class Calibrator:
    """Runs ``_kernel`` between items and times it apart from the work.

    On a shared machine the CPU's speed drifts by up to 40% over seconds to
    a minute, and flips between a fast and a slow state within a second, so
    wall times of 33 s runs spread by up to 25-35% between runs.  Each item's
    time divided by the mean time of the kernel runs nearest to it (in item
    time, see ``in_kernel_runs``) spreads by a few percent.  The kernel runs
    with the garbage collector off, so it does not pay for collecting the
    package's heap.  In a traced pass each run is a ``bench.cal`` span, so no
    layer is charged for it.
    """

    def __init__(self, kernel=_kernel) -> None:
        self.kernel = kernel
        self.wall: list[float] = []
        self.at: list[float] = []  # item time done before each run
        self.cpu = 0.0
        self._done = 0.0
        self._owed = CAL_EVERY_S  # the first item is followed by a run

    def between(self, item_s: float) -> None:
        self._done += item_s
        self._owed += item_s
        if self._owed >= CAL_EVERY_S:
            self._owed = 0.0
            self.run()

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            gc.disable()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            self.kernel()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            gc.enable()
            self.wall.append(wall1 - wall0)
            self.at.append(self._done)
            self.cpu += cpu1 - cpu0

    def in_kernel_runs(self, item_s: list[float]) -> list[float]:
        """Each of the items, timed one after another through ``between``,
        in units of the mean of the CAL_NEAREST kernel runs nearest to it."""
        out, end, lo = [], 0.0, 0
        n = min(CAL_NEAREST, len(self.at))
        for t in item_s:
            mid = end + t / 2
            end += t
            # slide the window [lo, lo + n) while its far end is nearer
            while lo + n < len(self.at) and mid - self.at[lo] > self.at[lo + n] - mid:
                lo += 1
            out.append(t * n / sum(self.wall[lo:lo + n]))
        return out


def _calibrate_imports(cal: Calibrator):
    """Give ``cal`` its turn at every import until the returned function is
    called, so that kernel runs also fall between the set-up's imports."""
    state = {"on": True, "resume": time.perf_counter()}

    def hook(event, _args):
        if event == "import" and state["on"]:
            state["on"] = False  # no kernel runs inside a kernel run
            cal.between(time.perf_counter() - state["resume"])
            state["resume"] = time.perf_counter()
            state["on"] = True

    def stop():
        state["on"] = False

    sys.addaudithook(hook)
    return stop


class _RowTimer(io.StringIO):
    """Captured stdout that times each line from the end of the previous one,
    running the calibrator in between."""

    def __init__(self, cal: Calibrator) -> None:
        super().__init__()
        self.cal = cal
        self.lines: list[float] = []
        self._resume = time.perf_counter()

    def write(self, s: str) -> int:
        n = super().write(s)
        for _ in range(s.count("\n")):
            line_s = time.perf_counter() - self._resume
            self.lines.append(line_s)
            self.cal.between(line_s)
            self._resume = time.perf_counter()
        return n


# -- passes: each returns (item seconds, outputs); nothing is checked here --


def _pass_exact(pkg, items, with_product, corrupt, item_span, cal):
    cf, pr = pkg.closed_form, pkg.product_rules
    bump = pkg.ZetaExpr.log2(Fraction(1, 2**64))

    def item(i, d, k):
        expr = cf.logdet_gjms(d, k)
        if corrupt and i % 5 == 0:
            expr = expr + bump
        value = cf.evaluate(expr)
        same = pr.logdet_via_product(d, k) == expr if with_product else True
        return expr, value, same

    item = item_span(item)
    times, outs = [], []
    for i, (d, k) in enumerate(items):
        t0 = time.perf_counter()
        try:
            out = item(i, d, k)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        times.append(time.perf_counter() - t0)
        outs.append(out)
        cal.between(times[-1])
    return times, outs


def _pass_crosscheck(pkg, items, d_max, item_span, cal):
    writer = _RowTimer(cal)
    main = item_span(lambda argv: pkg.cli.main(argv))
    with contextlib.redirect_stdout(writer):
        try:
            out = main(["crosscheck", "--d-max", str(d_max)])
        except Exception as exc:
            out = exc
    # line 0 is the header, lines 1..len(items) are the (d, k) rows
    return writer.lines[1:1 + len(items)], (out, writer.getvalue())


def _pass_queries(pkg, items, item_span, cal):
    def item(d, k, fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(["logdet", "--d", str(d), "--k", str(k), "--format", fmt])
        return rc, buf.getvalue()

    item = item_span(item)
    times, outs = [], []
    for d, k, fmt in items:
        t0 = time.perf_counter()
        try:
            out = item(d, k, fmt)
        except Exception as exc:
            out = exc
        times.append(time.perf_counter() - t0)
        outs.append(out)
        cal.between(times[-1])
    return times, outs


# -- checks, run after the timed region; each returns one message per failed item --


def _check_exact(pkg, ref, items, outs) -> list[str]:
    nstr = pkg.closed_form.mp.nstr
    errors = []
    for (d, k), out in zip(items, outs):
        if isinstance(out, Exception):
            errors.append(f"({d},{k}) raised {out!r}")
            continue
        expr, value, same = out
        want_digest, want_value = ref["exact"][f"{d},{k}"]
        if not same:
            errors.append(f"({d},{k}) product route differs from closed form")
        elif digest(expr.to_json()) != want_digest:
            errors.append(f"({d},{k}) expression differs from reference")
        elif nstr(value, VALUE_DIGITS) != want_value:
            errors.append(f"({d},{k}) value {nstr(value, VALUE_DIGITS)} != {want_value}")
    return errors


def _check_crosscheck(ref, items, out) -> list[str]:
    rc, text = out
    lines = text.splitlines()
    if isinstance(rc, Exception) or rc != 0:
        return [f"crosscheck returned {rc!r}"] * len(items)
    if len(lines) != len(items) + 2 or not lines[-1].startswith("OK:"):
        return ["crosscheck output has the wrong shape"] * len(items)
    errors = []
    for (d, k), row in zip(items, lines[1:]):
        fields = row.split()
        try:
            got_d, got_k = int(fields[0]), int(fields[1])
            closed_s, quad, prod_s, fsum = fields[2], float(fields[3]), fields[4], float(fields[5])
        except (ValueError, IndexError):
            errors.append(f"({d},{k}) unparsable row {row!r}")
            continue
        want = float(ref["crosscheck"][f"{d},{k}"])
        want_s = f"{want:.12e}"
        if (got_d, got_k) != (d, k):
            errors.append(f"row for ({got_d},{got_k}) where ({d},{k}) was due")
        elif closed_s != want_s or prod_s != want_s:
            errors.append(f"({d},{k}) exact columns {closed_s}, {prod_s} != {want_s}")
        else:
            bad = [f"{label} {v!r} off by {abs(v - want):.2e} "
                   f"(relative {abs(v - want) / abs(want):.2e})"
                   for label, v in (("quadrature", quad), ("factor_sum", fsum))
                   if abs(v - want) > min(ABS_GATE, REL_GATE * abs(want))]
            if bad:
                errors.append(f"({d},{k}) " + "; ".join(bad))
    return errors


def _check_queries(ref, items, outs) -> list[str]:
    errors = []
    for (d, k, fmt), out in zip(items, outs):
        if isinstance(out, Exception):
            errors.append(f"logdet ({d},{k},{fmt}) raised {out!r}")
        elif out[0] != 0 or digest(out[1]) != ref["queries"][f"{d},{k},{fmt}"]:
            errors.append(f"logdet ({d},{k},{fmt}) output differs from reference")
    return errors


# -- tracing -----------------------------------------------------------------


class _QuadObserver:
    """Counts taken at the quadrature boundary while tracing."""

    def __init__(self, ref_closed: dict) -> None:
        self.ref_closed = ref_closed
        self.points = 0
        self.neval = 0
        self.max_rel_dev = 0.0

    def on_integrand(self, args, _result) -> None:
        x = args[0]
        self.points += x.size if hasattr(x, "size") else 1

    def on_result(self, args, result) -> None:
        d, k = args[0], args[1]
        self.neval += result.neval
        want = float(self.ref_closed[f"{d},{k}"])
        self.max_rel_dev = max(self.max_rel_dev, abs(result.value - want) / abs(want))


def _install_tracer(pkg, observer):
    cf, pr, q, cli = pkg.closed_form, pkg.product_rules, pkg.quadrature, pkg.cli
    t = Tracer()
    t.patch("norlund.d_norlund", [cf, cli], "d_norlund")
    t.patch("closed_form.f_odd", [cf, pkg], "f_odd")
    t.patch("closed_form.logdet_gjms", [cf, pr, cli, pkg], "logdet_gjms")
    t.patch("product_rules.logdet_via_product", [pr, cli, pkg], "logdet_via_product")
    t.patch("closed_form.evaluate", [cf, cli, pkg], "evaluate")
    t.patch("closed_form.zeta_odd", [cf, pkg], "zeta_odd")
    t.patch("quadrature.logdet_quadrature_result", [q, cli, pkg],
            "logdet_quadrature_result", after=observer.on_result)
    t.patch("quadrature.logdet_factor_quadrature", [q, cli, pkg], "logdet_factor_quadrature")
    for attr in ("integrand_main", "integrand_factor"):
        t.patch("quadrature.integrand", [q, pkg], attr, after=observer.on_integrand)
    t.patch("cli.main", [cli], "main")
    for attr in ("__str__", "to_latex", "to_json_obj"):
        t.patch("zexpr.render", [pkg.ZetaExpr], attr)
    return t


def _corrupt(pkg, workload) -> None:
    """Damage the program's results the way a wrong optimisation might.

    The exact workloads damage every fifth item inside the pass itself.
    """
    cf, q, cli = pkg.closed_form, pkg.quadrature, pkg.cli
    if workload == "crosscheck":
        # off by 5e-10: every row stays inside the CLI's absolute 1e-9 gate
        orig = q.logdet_quadrature_result

        def skewed(*args, **kwargs):
            res = orig(*args, **kwargs)
            return q.QuadResult(res.value + 5e-10, res.error, res.neval)

        q.logdet_quadrature_result = cli.logdet_quadrature_result = skewed
    elif workload == "warm_queries":
        orig = cf.evaluate
        cf.evaluate = cli.evaluate = lambda expr, *a: orig(expr, *a) * (1 + 1e-6)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    # -- set-up: imports, inputs and (warm_queries only) the cache warm-up,
    # with kernel runs before, between warm-up items and after
    setup_cal = Calibrator()
    setup_cal.run(SETUP_CAL_RUNS)
    stop_hook = _calibrate_imports(setup_cal)
    pkg = import_package()
    stop_hook()
    caches = package_caches()
    errors = cold_errors(pkg, caches)
    items = make_items(args.workload, args.seed, args.size)
    if args.workload == "warm_queries":
        for d, k in pairs_upto(SIZES[args.size]["warm_queries"]):
            t0 = time.perf_counter()
            pkg.closed_form.logdet_gjms(d, k)
            setup_cal.between(time.perf_counter() - t0)
    setup_cal.run(SETUP_CAL_RUNS)
    print("READY", json.dumps({"cal_s": statistics.mean(setup_cal.wall),
                               "cal_total_s": sum(setup_cal.wall)}), flush=True)
    if args.mode == "setup":
        return 0

    ref = load_reference()
    if args.corrupt:
        _corrupt(pkg, args.workload)
    tracer = observer = None
    item_span = lambda fn: fn  # noqa: E731
    if args.mode == "traced":
        observer = _QuadObserver(ref["crosscheck"])
        tracer = _install_tracer(pkg, observer)
        item_span = lambda fn: tracer.wrap("bench.item", fn)  # noqa: E731
    cal = Calibrator(tracer.wrap("bench.cal", _kernel) if tracer else _kernel)
    before = {name: fn.cache_info() for name, fn in caches.items()}

    # -- the timed pass; the calibrator's own time is taken out afterwards
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if args.workload in ("exact_grid", "exact_column"):
        times, outs = _pass_exact(pkg, items, args.workload == "exact_grid",
                                  args.corrupt, item_span, cal)
    elif args.workload == "crosscheck":
        times, outs = _pass_crosscheck(pkg, items, SIZES[args.size]["crosscheck"],
                                       item_span, cal)
    else:
        times, outs = _pass_queries(pkg, items, item_span, cal)
    wall = time.perf_counter() - wall0 - sum(cal.wall)
    cpu = time.process_time() - cpu0 - cal.cpu
    items_cal = cal.in_kernel_runs(times)
    cal_s = sum(cal.wall) / len(cal.wall)

    after = {name: fn.cache_info() for name, fn in caches.items()}
    if tracer is not None:
        tracer.uninstall()

    # -- checks, outside the timed region
    if args.workload in ("exact_grid", "exact_column"):
        failures = _check_exact(pkg, ref, items, outs)
    elif args.workload == "crosscheck":
        failures = _check_crosscheck(ref, items, outs)
    else:
        failures = _check_queries(ref, items, outs)
    if errors:  # caches were not cold: nothing in this pass counts
        failures = errors + failures
    failed = len(items) if errors else len(failures)

    import mpmath
    import numpy
    import scipy

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_s": cal_s,
        # time outside the items (loop, crosscheck header and summary) at the
        # pass's mean kernel time
        "wall_cal": sum(items_cal) + (wall - sum(times)) / cal_s,
        "item_cal": items_cal,
        "cal_runs": len(cal.wall),
        "item_s": times,
        "attempted": len(items),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
        "cache_delta": {name: {"hits": after[name].hits - before[name].hits,
                               "misses": after[name].misses - before[name].misses}
                        for name in caches},
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"].update(integrand_points=observer.points, neval=observer.neval,
                               max_rel_dev=observer.max_rel_dev)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
