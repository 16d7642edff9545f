"""Replay the golden CLI corpus (``tests/golden/corpus.jsonl``).

Exact commands must reproduce their recorded stdout byte for byte.  The
numeric commands ``theta`` and ``roundtrip`` must reproduce every string,
integer and flag, and every float to 1e-12 relative or 1e-15 absolute:
``exp`` (the C library's, through ``cmath``: theta sums and the Aberth
starting points) may differ in the last place between CPUs.
"""

import json
import math

import pytest

from golden.generate import CORPUS, record

NUMERIC_COMMANDS = ("theta", "roundtrip")
# the keys under which an exact command prints JSON numbers: counts
COUNT_KEYS = {"orders", "count", "euler", "euler_sum"}

CASES = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def _command(case):
    if case["argv"][0] == "run":
        return case.get("doc", {}).get("command")
    return case["argv"][0]


def _close(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_close, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_case(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout = record(case["argv"], case.get("doc"), case.get("stdin"))
    assert code == case["exit"]
    if stdout == case["stdout"]:
        return
    assert _command(case) in NUMERIC_COMMANDS, "output differs from the corpus"
    assert _close(json.loads(stdout), json.loads(case["stdout"]))


def _numbers(value, key=None):
    """(key, number) for each JSON number in ``value``, with the key it sits
    under; a list's items sit under the list's key."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, value


def test_exact_values_print_as_strings_and_counts_as_numbers():
    # every exact value is a Fraction and prints as "p/q"; a JSON number in
    # the output of an exact command (run documents included) is a count
    for case in CASES:
        doc = json.loads(case["stdout"])
        if doc.get("command") in NUMERIC_COMMANDS:
            continue
        keys = {k for k, _ in _numbers(doc)}
        assert keys <= COUNT_KEYS, (case["argv"], keys - COUNT_KEYS)
