"""Record the golden CLI corpus: one JSON line per case.

Each line holds ``argv`` (the arguments after the program name), the job
document or stdin text a ``run`` case needs, the exit code and the exact
stdout of ``g2satake.cli.run``.  ``tests/test_golden.py`` replays every
line and requires the same exit code and output (``mismatch``), so a
refactor that is meant to keep the CLI output must pass it unchanged.
Regenerate only for an intended change of output, and say so in the change
log:

    PYTHONPATH=src python tests/golden/generate.py

``--check`` replays the corpus instead, with the standard library alone
(no pytest, no numpy), and exits 1 if any case differs:

    PYTHONPATH=src python tests/golden/generate.py --check

Job documents are written into the working directory under the file name
that ``argv`` gives, so the recording and the replay both run in a scratch
directory.  Inputs at every special locus follow the constructions of
``perfbench/jobs.py``.  Values of more than 4300 decimal digits are left
out: the encoder cannot print them yet (``phi`` from 5-digit heights on).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from g2satake.cli import run
from g2satake.igusa import (absolute_invariants, igusa_from_rosenhain,
                            rosenhain_poly)

CORPUS = Path(__file__).with_name("corpus.jsonl")

# the numeric commands: their floats come from the C library's exp (theta
# sums, Aberth starting points), which may differ in the last place between
# CPUs, so they are compared to 1e-12 relative or 1e-15 absolute
NUMERIC_COMMANDS = ("theta", "roundtrip")

MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")

GENERIC = "2,3,5"
GENERIC_NEG = "-1/3,7/2,-12/5"
H10 = "4738291056/8829104735,-1920384756/6473829105,7364519028/2039485716"
H10_B = "8759677792/9420260951,2195188523/4940602561,-8500710257/2724819962"
H30 = ("-760052680584135277917699742353/948976433064614170000004856029,"
       "-740311222875247614921391190876/929843575700088097723836082607,"
       "-126650940139843540943465467603/145294969069157102331512933948")
# the coefficients of the Rosenhain quintic x (x - 1) (x - l1) (x - l2) (x - l3)
# of H30: igusa --sextic on them prints what igusa --rosenhain=H30 prints
H30_QUINTIC = ",".join(map(str, rosenhain_poly(
    *map(Fraction, H30.split(","))).coeffs))
H60 = ("12348659103603927716851141919225599804700703053726843026920/"
       "22456763511431642145044208825942677913383107567377786617989,"
       "494208935864645487915430707762541360260330217817346688152377/"
       "332207600816250623300487160073535044841088572320398619419610,"
       "83109966715928345162574690810152341053565544684660855469287/"
       "23197046027030193387888332672788233130298188602519188236558")
Q0 = "2,3,2/3"                        # (c, b, c/b): extra involution x -> c/x
Q0_H4 = "-1,2,-2"                     # on the Humbert surface H4
Q0_ROUNDTRIP = "-7/9,-3/4,28/27"      # the Satake sextic has a double root
# the branch points 0 and 1e-30 merge in double precision, and so do Satake
# roots: roundtrip ends in a RootFindingError, a known limit of numeric roots
CLUSTERED = f"1/{10**30},2,3"
I10_ZERO = "2,3,3"                    # repeated lambda: singular sextic
CHI10_ZERO = "38/69,-21/82,0,-39/56"  # Siegel forms on the product locus
I2_ZERO = "0,17/5,-23/7,11/13"        # Igusa invariants with I2 = 0, I10 != 0
BAD_POWER_SUMS = "0,1,0,99,0,0"       # s4 != s2^2/4
# Igusa invariants of 2,3,5: the six I2 of kummer23 sit at rational roots
# of B that only the p-adic lift finds
IGUSA_GENERIC = "550,8272,1399200,2073600"
# the invariants that igusa --rosenhain=H10 prints
IGUSA_H10 = ",".join(str(v) for v in igusa_from_rosenhain(
    *map(Fraction, H10.split(","))).astuple())
# a 60-digit lambda whose standard census has a quintic cluster with a
# simple root modulo the lifting prime but no rational root over it
H60_NO_ROOT = (
    "114068682701332794302271082844427384786906489624944471077808/"
    "190089293490611415399013257464987971340603450100430929694667,"
    "-33580077956246699181480956192137070840655271545256310385669/"
    "50660349373732307189632015268027226039338605216099353724741,"
    "865304357468169192140360611500162632294677793384504345591445/"
    "147818301182134897318494459399485142426322462269185198470349")
# the invariants of a 30-digit lambda (perfbench/jobs.py: lambdas at seed
# 7): about 3.5k digits, whose six rational I1/I2 locations are lifted
H30_B = ("230890691289625457733191455609/199723338236895937510002597876,"
         "-14015298079294870262477645961/26401461887432185693254972482,"
         "-412749186809999235244047307471/621760346241240602648274940145")
IGUSA_H30 = ",".join(str(v) for v in igusa_from_rosenhain(
    *map(Fraction, H30_B.split(","))).astuple())
# the absolute invariants of Q0: the moduli map's denominator q vanishes
ABSOLUTE_Q0 = ",".join(str(v) for v in absolute_invariants(igusa_from_rosenhain(
    *map(Fraction, Q0.split(",")))).astuple())
H3 = "123/457,-389/211,702/913"
H4 = "4821/7393,-2937/5519,8011/3167"
SHARED_PRIMES = "2/3,9/10,35/6"       # numerators share primes with r = 30
SIEGEL_H10 = "3141592653/2718281829,-1618033988,5772156649/1414213562,-2236067977"
TAU = "0.44,1.86,-0.26,0.81,-0.1,1.93"
TAU_SMALL = "0.12,1.25,0.31,0.42,-0.37,1.4"
TAU_DIAGONAL = "0.1,1.2,0,0,0.2,1.5"  # z = 0: theta_10 vanishes (chi10 = 0)
TAU_MU_01 = "0.2,0.11,0.05,0.03,-0.3,0.45"  # mu = 0.107: automatic radius 11
TAU_MU_002 = "0.3,0.021,-0.1,0.003,0.2,0.7"  # mu = 0.021: radius capped, not precise


def cases():
    """(argv, doc, stdin) triples: every command, every fibration model,
    2- and 10-digit lambdas, the special loci and every exit code."""
    argvs = []
    for source in (GENERIC, GENERIC_NEG, H10):
        argvs += [["igusa", f"--rosenhain={source}"],
                  ["predicates", f"--rosenhain={source}"],
                  ["satake-sextic", f"--rosenhain={source}"]]
        argvs += [["fibration", "--model", m, f"--rosenhain={source}"]
                  for m in MODELS]
    for source in (GENERIC, GENERIC_NEG):
        argvs += [["phi", f"--rosenhain={source}"],
                  ["roundtrip", f"--rosenhain={source}"]]
    argvs += [
        ["roundtrip", f"--rosenhain={H10}"],
        ["igusa", "--igusa=550,12,-7,2073600"],
        ["igusa", "--siegel=3,5,7,11"],
        ["igusa", "--sextic=0,30,-61,41,-11,1"],
        ["igusa", "--sextic=0,-30,31,-10,1,0,0"],
        ["igusa", "--sextic=1,0,0,0,0,0,1", "--pretty"],
        ["phi", "--absolute=1/2,-3,7"],
        ["satake-sextic", "--siegel=3,5,7,11"],
        # Q = 0
        ["phi", f"--rosenhain={Q0_H4}"],
        ["phi", f"--rosenhain={Q0}"],
        ["predicates", f"--rosenhain={Q0}"],
        ["satake-sextic", f"--rosenhain={Q0}"],
        ["fibration", "--model", "alternate", f"--rosenhain={Q0}"],
        ["fibration", "--model", "standard", f"--rosenhain={Q0}"],
        ["roundtrip", f"--rosenhain={Q0_ROUNDTRIP}"],
        # chi10 = 0
        ["igusa", f"--siegel={CHI10_ZERO}"],
        ["predicates", f"--siegel={CHI10_ZERO}"],
        ["satake-sextic", f"--siegel={CHI10_ZERO}"],
        ["fibration", "--model", "alternate-ftheory", f"--siegel={CHI10_ZERO}"],
        # I2 = 0
        ["igusa", f"--igusa={I2_ZERO}"],
        ["satake-sextic", f"--igusa={I2_ZERO}"],
        ["phi", f"--igusa={I2_ZERO}"],
        ["fibration", "--model", "alternate", f"--igusa={I2_ZERO}"],
        ["fibration", "--model", "kummer23", f"--igusa={I2_ZERO}"],
        # I10 = 0
        ["igusa", f"--rosenhain={I10_ZERO}"],
        ["predicates", f"--rosenhain={I10_ZERO}"],
        ["phi", f"--rosenhain={I10_ZERO}"],
        *(["fibration", "--model", m, f"--rosenhain={I10_ZERO}"] for m in MODELS),
        # kummer1 where I2 positions l_i and l_i l_j coincide: I4 at 6, I4
        # at 2 and -2, I2 at 1, I4 at 2 next to I2 at 1
        *(["fibration", "--model", "kummer1", f"--rosenhain={lams}"]
          for lams in ("2,3,6", "-1,2,-2", "2,1/2,5", "4,1/2,2")),
        # theta
        ["theta", f"--tau={TAU}"],
        ["theta", f"--tau={TAU_SMALL}"],
        ["theta", f"--tau={TAU}", "--theta-radius", "3"],
        ["theta", "--tau=0.1,0.7,0.05,0.1,-0.2,0.8", "--theta-radius", "2"],
        ["theta", f"--tau={TAU_DIAGONAL}"],
        ["theta", f"--tau={TAU_MU_01}"],
        ["theta", f"--tau={TAU_MU_002}"],
        ["theta", "--tau=0,1,0,2,0,1"],
        ["theta", "--tau=0,1,0,1"],
        # exit codes 1 and 3
        ["satake-sextic", f"--power-sums={BAD_POWER_SUMS}"],
        ["satake-sextic", "--power-sums=1,0,0,0,0,0"],
        ["satake-sextic", "--power-sums=0,4,1,4,2,3"],
        ["igusa", "--rosenhain=1/0,2,3"],
        ["igusa", "--rosenhain=2,3"],
        ["igusa"],
        ["fibration", "--model", "elliptic", f"--rosenhain={GENERIC}"],
        ["fibration", "--model", "kummer1", f"--siegel={CHI10_ZERO}"],
        ["roundtrip", "--igusa=550,12,-7,2073600"],
        ["roundtrip", f"--rosenhain={CLUSTERED}"],
        ["theta"],
        ["run", "missing.json"],
        # a second curve flag is a schema error on every command that
        # takes --siegel
        ["predicates", "--siegel=3,5,7,11", f"--rosenhain={GENERIC}"],
        ["satake-sextic", "--siegel=3,5,7,11", f"--rosenhain={GENERIC}"],
        ["fibration", "--model", "alternate-ftheory", "--siegel=3,5,7,11",
         f"--rosenhain={GENERIC}"],
        ["fibration", "--model", "kummer1", f"--rosenhain={GENERIC}",
         "--siegel=3,5,7,11"],
    ]
    out = [(argv, None, None) for argv in argvs]
    docs = [
        {"command": "predicates", "input": {"rosenhain": [-1, 2, -2]}},
        {"command": "satake-sextic", "input": {"rosenhain": ["-7/2", "1/3", 5]}},
        {"command": "fibration", "input": {"rosenhain": [-3, "2/5", 7]},
         "options": {"model": "standard"}},
        {"command": "roundtrip", "input": {"rosenhain": [2, 3, 5]},
         "options": {"tol": 1e-10}},
        {"command": "theta", "input": {"tau": [0.3, 1.1, 0.2, 0.4, -0.4, 1.7]}},
        {"command": "phi", "input": {"rosenhain": [-1, 2, -2]}},
        {"command": "genus3", "input": {"rosenhain": [2, 3, 5]}},
        {"input": {"rosenhain": [2, 3, 5]}},
        {"command": "predicates",
         "input": {"siegel": [3, 5, 7, 11], "rosenhain": [2, 3, 5]}},
    ]
    out += [(["run", "job.json"], doc, None) for doc in docs]
    out += [(["run", "-"], None, json.dumps(docs[1])),
            (["run", "-"], None, "{not json")]
    # the fiber census and the discriminants at 10-60 digits and at Q = 0,
    # where two Satake roots coincide; satake-sextic and predicates at 30
    # digits print values past the encoder's limit (exit 2)
    later = [["fibration", "--model", m, f"--rosenhain={H30}"] for m in MODELS]
    later.append(["fibration", "--model", "alternate", f"--rosenhain={H60}"])
    for source in (H10_B, H30, Q0_ROUNDTRIP):
        later += [["satake-sextic", f"--rosenhain={source}"],
                  ["predicates", f"--rosenhain={source}"]]
    later += [["fibration", "--model", m, f"--rosenhain={Q0_ROUNDTRIP}"]
              for m in MODELS]
    # the census on input without Rosenhain lambdas, so without known
    # Satake roots: rational fibers by lifting, and irrational clusters
    for source in (f"--igusa={IGUSA_GENERIC}", f"--igusa={IGUSA_H10}",
                   "--siegel=3,5,7,11"):
        later += [["fibration", "--model", m, source] for m in MODELS[1:]]
    # the Rosenhain invariants at 30 and 60 digits, near a double root, at
    # Q = 0, and at a lambda equal to 0 or 1 (I10 = 0)
    later += [["igusa", f"--rosenhain={source}"]
              for source in (H30, H60, CLUSTERED, Q0, Q0_H4, "0,2,3", "2,1,3")]
    # predicates without Rosenhain lambdas: Siegel and Igusa input, Q = 0
    # (y^2 = x^6 + 1, whose Satake sextic has a double root) and I2 = 0
    later += [["predicates", source]
              for source in ("--siegel=3,5,7,11", f"--igusa={IGUSA_GENERIC}",
                             "--sextic=1,0,0,0,0,0,1", f"--igusa={I2_ZERO}")]
    # rational roots of large clusters: a 60-digit standard census whose
    # lifts end at the root bound, and the census on 30-digit invariants
    later.append(["fibration", "--model", "standard", f"--rosenhain={H60_NO_ROOT}"])
    later += [["fibration", "--model", m, f"--igusa={IGUSA_H30}"]
              for m in ("kummer23", "alternate", "alternate-ftheory")]
    # the moduli map on every input flag, on negative I2 and at 3 and 4
    # digits (from 5 digits on it prints values past the encoder's limit),
    # and its refusals: I10 = 0, chi10 = 0, j1 = 0 and q = 0
    later += [["phi", source] for source in (
        "--igusa=550,12,-7,2073600", "--igusa=-3,0,0,5", "--igusa=1,2,3,0",
        "--siegel=3,5,7,11", f"--siegel={CHI10_ZERO}",
        "--sextic=0,30,-61,41,-11,1", "--sextic=3,-1,0,2,1,4",
        "--sextic=1,2,-3,0,5,-1,2", "--sextic=0,0,1,2,3,4,5",
        "--absolute=-3/7,5/2,11/3", "--absolute=0,1,1",
        f"--absolute={ABSOLUTE_Q0}", f"--rosenhain={H3}", f"--rosenhain={H4}")]
    # igusa on sextics of degree 5 and 6 with a leading coefficient, on
    # I10 = 0 through --igusa and on 10-digit Siegel forms; igusa and
    # roundtrip on lambdas whose numerators share primes with the common
    # denominator, and roundtrip on 2,3,6
    later += [["igusa", source] for source in (
        "--sextic=3,-1,0,2,1,4", "--sextic=2,0,1,0,-3,0,5", "--igusa=550,12,-7,0",
        f"--rosenhain={SHARED_PRIMES}", f"--siegel={SIEGEL_H10}")]
    later += [["roundtrip", f"--rosenhain={source}"]
              for source in (SHARED_PRIMES, "2,3,6")]
    # igusa on the Rosenhain quintic of H30; --power-sums next to a curve
    # flag, a repeated flag and an --out in a missing directory (exit 1);
    # and a job document on stdin that sets a boolean option with true
    later += [["igusa", f"--sextic={H30_QUINTIC}"],
              ["satake-sextic", "--power-sums=0,4,1,4,2,3", f"--rosenhain={GENERIC}"],
              ["igusa", "--rosenhain=1/2,3,5", f"--rosenhain={GENERIC}"],
              ["igusa", f"--rosenhain={GENERIC}", "--out=missing/x.json"]]
    out += [(argv, None, None) for argv in later]
    out.append((["run", "-"], None, json.dumps(
        {"command": "igusa", "input": {"rosenhain": [2, 3, 5]},
         "options": {"pretty": True}})))
    # a finite tau whose lattice sums overflow to NaN, which is not JSON
    out.append((["theta", "--tau=1e308,1,0,0,-1e308,1"], None, None))
    return out


def record(argv, doc=None, stdin=None):
    """Exit code and stdout of one case, run in the working directory."""
    if doc is not None:
        Path(argv[1]).write_text(json.dumps(doc))
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(buf):
            code = run(list(argv))
    finally:
        sys.stdin = saved
        if doc is not None:
            os.remove(argv[1])
    return code, buf.getvalue()


def _command(case):
    """The command a corpus line runs, also through a job document."""
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


def mismatch(case, code, stdout):
    """How a replay (exit ``code``, ``stdout``) differs from its corpus line
    ``case``, or None: exact commands must print the same bytes; numeric
    ones the same strings, integers and flags, and floats within
    ``_close``."""
    if code != case["exit"]:
        return f"exit {code}, recorded {case['exit']}"
    if stdout == case["stdout"] or (
            _command(case) in NUMERIC_COMMANDS
            and _close(json.loads(stdout), json.loads(case["stdout"]))):
        return None
    return "output differs from the corpus"


def load():
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def _in_scratch(run_all):
    """``run_all()`` inside a fresh temporary working directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            return run_all()
        finally:
            os.chdir(cwd)


def check():
    """Replay every corpus line; the number of lines that differ."""
    cases = load()

    def replay():
        bad = 0
        for case in cases:
            why = mismatch(case, *record(case["argv"], case.get("doc"),
                                         case.get("stdin")))
            if why is not None:
                bad += 1
                print(f"{' '.join(case['argv'])}: {why}")
        return bad
    bad = _in_scratch(replay)
    print(f"{len(cases)} cases, {bad} differ (Python {sys.version.split()[0]})")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="replay the corpus instead of recording it")
    if parser.parse_args().check:
        sys.exit(1 if check() else 0)

    def record_all():
        lines = []
        for argv, doc, stdin in cases():
            code, stdout = record(argv, doc, stdin)
            line = {"argv": argv, "exit": code, "stdout": stdout}
            if doc is not None:
                line["doc"] = doc
            if stdin is not None:
                line["stdin"] = stdin
            lines.append(json.dumps(line, sort_keys=True))
        return lines
    lines = _in_scratch(record_all)
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} cases -> {CORPUS}")


if __name__ == "__main__":
    main()
