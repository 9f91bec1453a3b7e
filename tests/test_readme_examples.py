"""Every ``$ gjmsdet ...`` example in README.md, run in-process.

An example is a ``$ gjmsdet`` line in a fenced block and the lines under it,
up to a blank line or the next ``$`` line.  A ``...`` line, however
indented, skips any number of output lines; a ``...`` inside a line splits
it into parts that must appear in that order, the first at the start and
the last at the end.
``quad`` and ``crosscheck`` print values whose last digits follow the
platform's ``exp``, so their numbers are masked and only the exit status,
the labels and the header are compared.
"""

import re
import shlex
from pathlib import Path

import pytest

from gjmsdet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MASKED = {"quad", "crosscheck"}
_NUMBER = re.compile(r"\s*[-+]?\d+(\.\d+)?(e[-+]?\d+)?")


def examples():
    out, example, fenced = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, example = not fenced, None
        elif fenced and line.startswith("$ gjmsdet "):
            example = (shlex.split(line[2:])[1:], [])
            out.append(example)
        elif example is not None and line.strip():
            example[1].append(line)
        else:
            example = None
    return out


def line_matches(pattern: str, line: str) -> bool:
    first, *rest = pattern.split("...")
    if not rest:
        return line == pattern
    if not line.startswith(first):
        return False
    pos = len(first)
    for part in rest[:-1]:
        pos = line.find(part, pos)
        if pos < 0:
            return False
        pos += len(part)
    return len(line) - len(rest[-1]) >= pos and line.endswith(rest[-1])


def lines_match(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    if expected[0].strip() == "...":
        return any(lines_match(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and line_matches(expected[0], actual[0]) and lines_match(
        expected[1:], actual[1:]
    )


def test_readme_has_an_example_of_every_command():
    assert {argv[0] for argv, _ in examples()} == {
        "logdet", "quad", "rule", "crosscheck", "sweep", "tables"
    }


@pytest.mark.parametrize(
    "argv, expected", examples(), ids=[" ".join(argv) for argv, _ in examples()]
)
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    actual = capsys.readouterr().out.splitlines()
    assert code == 0
    if argv[0] in MASKED:
        expected = [_NUMBER.sub(" #", line) for line in expected]
        actual = [_NUMBER.sub(" #", line) for line in actual]
    assert lines_match(expected, actual), "\n".join(actual)
