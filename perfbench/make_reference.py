"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

The reference pins the outputs the benchmark checks against:

* ``exact``: for every exact_grid and exact_column item, the SHA-256 of
  ``logdet_gjms(d, k).to_json()`` and the value to 30 significant digits;
* ``crosscheck``: for every crosscheck row, the closed-form float;
* ``queries``: for every warm_queries (d, k, format), the SHA-256 of the
  exact bytes ``gjmsdet logdet`` prints.

Regenerate it only when an output is meant to change, and say so.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib
import io
import json

import worker as w


def main() -> int:
    pkg = w.import_package()
    cf, cli = pkg.closed_form, pkg.cli
    full = w.SIZES["full"]

    exact = {}
    pairs = w.pairs_upto(full["exact_grid"]) + [
        (d, 1) for d in range(3, full["exact_column"] + 1, 2)]
    for d, k in sorted(set(pairs)):
        expr = cf.logdet_gjms(d, k)
        exact[f"{d},{k}"] = [w.digest(expr.to_json()),
                             cf.mp.nstr(cf.evaluate(expr), w.VALUE_DIGITS)]

    crosscheck = {f"{d},{k}": repr(float(cf.evaluate(cf.logdet_gjms(d, k))))
                  for d, k in w.pairs_upto(full["crosscheck"])}

    queries = {}
    for d, k in w.pairs_upto(full["warm_queries"]):
        for fmt in w.FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["logdet", "--d", str(d), "--k", str(k), "--format", fmt])
            if rc != 0:
                raise SystemExit(f"logdet --d {d} --k {k} exited {rc}")
            queries[f"{d},{k},{fmt}"] = w.digest(buf.getvalue())

    with open(w.BENCH_DIR / "reference.json", "w") as fh:
        json.dump({"exact": exact, "crosscheck": crosscheck, "queries": queries},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
