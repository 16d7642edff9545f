"""Replay the golden CLI corpus (``tests/golden/corpus.jsonl``).

Exact commands must reproduce their recorded stdout byte for byte.  The
numeric commands ``theta`` and ``roundtrip`` must reproduce every string,
integer and flag, and every float to 1e-12 relative or 1e-15 absolute:
``exp`` (the C library's, through ``cmath``: theta sums and the Aberth
starting points) may differ in the last place between CPUs.  The rules are
``golden.generate.mismatch``, which ``generate.py --check`` applies too.
"""

import json

import pytest

from golden.generate import NUMERIC_COMMANDS, load, mismatch, record

# the keys under which an exact command prints JSON numbers: counts
COUNT_KEYS = {"orders", "count", "euler", "euler_sum"}

CASES = load()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_case(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout = record(case["argv"], case.get("doc"), case.get("stdin"))
    assert mismatch(case, code, stdout) is None


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
