"""Outputs pinned by the benchmark's reference file stay byte-identical.

``perfbench/reference.json`` holds, for every pair the benchmark checks, the
SHA-256 of the exact expression's JSON, its value to 30 digits, the
closed-form float of each crosscheck row and the SHA-256 of what
``gjmsdet logdet`` prints.  These tests only read the file; it is written by
``perfbench/make_reference.py`` when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import mpmath as mp
import pytest

from gjmsdet.cli import main
from gjmsdet.closed_form import evaluate, logdet_gjms

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
VALUE_DIGITS = 30


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pair(key):
    d, k = key.split(",")[:2]
    return int(d), int(k)


def test_exact_expressions_and_values(reference):
    entries = reference["exact"]
    assert len(entries) == 560
    wrong = []
    for key, (sha, value) in entries.items():
        expr = logdet_gjms(*_pair(key))
        if _sha256(expr.to_json()) != sha or mp.nstr(evaluate(expr), VALUE_DIGITS) != value:
            wrong.append(key)
    assert not wrong


def test_crosscheck_closed_form_floats(reference):
    wrong = [key for key, value in reference["crosscheck"].items()
             if repr(float(evaluate(logdet_gjms(*_pair(key))))) != value]
    assert not wrong


def test_logdet_command_bytes(reference, monkeypatch):
    monkeypatch.delenv("GJMSDET_DIGITS", raising=False)
    entries = reference["queries"]
    assert len(entries) == 1395
    wrong = []
    for key, sha in entries.items():
        d, k, fmt = key.split(",")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["logdet", "--d", d, "--k", k, "--format", fmt])
        if code != 0 or _sha256(buf.getvalue()) != sha:
            wrong.append(key)
    assert not wrong
