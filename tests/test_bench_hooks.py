"""The benchmark in ``perfbench/`` patches named functions at their call
sites and reads named caches.  A refactor that drops one of those names
breaks only the benchmark's traced runs; this test catches it in tier-1."""

import importlib.util
import sys
from pathlib import Path

import gjmsdet
import gjmsdet.cli  # noqa: F401  (a tracer site; the package does not import it)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

# the caches perfbench/run.py reads by key
READ_CACHES = (
    "norlund.d_norlund",
    "closed_form.f_odd",
    "closed_form.logdet_gjms",
    "closed_form.zeta_odd",
)


def _load_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # the worker imports tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("perfbench_worker", BENCH_DIR / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_tracer_installs_and_uninstalls_on_every_hook_site(monkeypatch):
    worker = _load_worker(monkeypatch)
    cf = gjmsdet.closed_form
    originals = (cf.d_norlund, cf.logdet_gjms, gjmsdet.cli.main, gjmsdet.ZetaExpr.__str__)
    tracer = worker._install_tracer(gjmsdet, worker._QuadObserver({}))
    try:
        assert cf.logdet_gjms is not originals[1]
    finally:
        tracer.uninstall()
    assert (cf.d_norlund, cf.logdet_gjms, gjmsdet.cli.main, gjmsdet.ZetaExpr.__str__) == originals


def test_package_caches_hold_the_keys_the_runner_reads(monkeypatch):
    caches = _load_worker(monkeypatch).package_caches()
    for key in READ_CACHES:
        assert hasattr(caches.get(key), "cache_info"), key


def test_warm_query_corruption_reaches_memoized_values(monkeypatch, capsys):
    # the benchmark's warm_queries corruption wraps cli.evaluate; a value
    # memoized on the cached record must not let a query get round it
    worker = _load_worker(monkeypatch)
    cf, cli = gjmsdet.closed_form, gjmsdet.cli
    cf.evaluate(cf.logdet_gjms(9, 2))
    argv = ["logdet", "--d", "9", "--k", "2", "--format", "json"]
    assert cli.main(argv) == 0
    clean = capsys.readouterr().out
    monkeypatch.setattr(cf, "evaluate", cf.evaluate)  # restored after the test
    monkeypatch.setattr(cli, "evaluate", cli.evaluate)
    worker._corrupt(gjmsdet, "warm_queries")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out != clean
