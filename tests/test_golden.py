"""Replay the golden CLI corpus (``tests/golden/corpus.jsonl``).

Exact commands must reproduce their recorded stdout byte for byte.  The
numeric commands ``theta`` and ``roundtrip`` must reproduce every string,
integer and flag, and every float to 1e-12 relative or 1e-15 absolute:
``exp`` (the C library's, through ``cmath``: theta sums and the Aberth
starting points) may differ in the last place between CPUs.  The rules are
``golden.generate.mismatch``, which ``generate.py --check`` applies too.
"""

import json
from fractions import Fraction

import pytest

from golden.generate import (CHI10_ZERO, H30, H30_QUINTIC, IGUSA_GENERIC,
                             NUMERIC_COMMANDS, Q0_ROUNDTRIP, load, mismatch,
                             record)

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


def _inputs(case):
    """The input fields of a corpus line, from its flags or its job document."""
    if case["argv"][0] == "run":
        return set((case.get("doc") or json.loads(case["stdin"]))["input"])
    return {a[2:].split("=")[0].replace("-", "_")
            for a in case["argv"] if a.startswith("--")}


def test_the_recorded_output_holds_the_papers_facts():
    # test_golden_case shows that the CLI prints the corpus; this shows that
    # what it prints is right: every K3 fibration has Euler sum 24, the
    # Satake sextic of every curve has disc = 2^52 3^21 Q, predicates checks
    # its identities off chi10 = 0, and fibers merge where the loci say
    for case in CASES:
        if case["exit"] != 0:
            continue
        envelope = json.loads(case["stdout"])
        command, res, why = envelope["command"], envelope["result"], case["argv"]
        if command == "fibration":
            # in characteristic 0 the Euler number of a fiber is the
            # vanishing order of the discriminant there
            assert res["euler_sum"] == 24, why
            assert sum(f["euler"] for f in res["fibers"]) == 24, why
            assert all(f["euler"] == f["count"] * f["orders"][2]
                       for f in res["fibers"]), why
        elif command == "satake-sextic" and "power_sums" not in _inputs(case):
            assert res["discriminant_identity"] is True, why
            disc, q = Fraction(res["discriminant"]), Fraction(res["Q"])
            assert disc == 2**52 * 3**21 * q, why
        elif command == "predicates" and not res["humbert"]["on_H1"]:
            assert res["identities_checked"] is True, why   # on_H1: chi10 = 0

    by_argv = {tuple(c["argv"]): c for c in CASES if c["argv"][0] != "run"}

    def result(*argv):
        case = by_argv[argv]
        assert case["exit"] == 0, argv
        return json.loads(case["stdout"])["result"]

    def fibers(model, source):
        res = result("fibration", "--model", model, source)
        return [f["type"] for f in res["fibers"] for _ in range(f["count"])]

    # l1 l2 = l3 merges two I2 fibers of kummer1 into an I4 at t = 6
    assert "I4" in fibers("kummer1", "--rosenhain=2,3,6")
    # Q = 0: two Satake roots coincide, and two I2 fibers of kummer23 merge
    q0 = f"--rosenhain={Q0_ROUNDTRIP}"
    assert result("satake-sextic", q0)["discriminant"] == "0"
    assert "I4" in fibers("kummer23", q0)
    # chi10 = 0: the I2 and I10* fibers of the F-theory model merge into I12*
    assert "I12*" in fibers("alternate-ftheory", f"--siegel={CHI10_ZERO}")
    # the six I2 fibers of kummer23 at rational roots, found by lifting
    assert fibers("kummer23", f"--igusa={IGUSA_GENERIC}").count("I2") == 6
    # one curve from its branch points and from its Rosenhain quintic
    assert (result("igusa", f"--rosenhain={H30}")
            == result("igusa", f"--sextic={H30_QUINTIC}"))
