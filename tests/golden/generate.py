"""Record the golden CLI corpus: one JSON line per case.

Each line holds ``argv`` (the arguments after the program name), the job
document or stdin text a ``run`` case needs, the exit code and the exact
stdout of ``g2satake.cli.run``.  ``tests/test_golden.py`` replays every
line and requires the same exit code and output, so a refactor that is
meant to keep the CLI output must pass it unchanged.  Regenerate only for
an intended change of output, and say so in the change log:

    PYTHONPATH=src python tests/golden/generate.py

Job documents are written into the working directory under the file name
that ``argv`` gives, so the recording and the replay both run in a scratch
directory.  Inputs at every special locus follow the constructions of
``perfbench/jobs.py``.  Values of more than 4300 decimal digits are left
out: the encoder cannot print them yet (``phi`` above 2-digit heights).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from g2satake.cli import run

CORPUS = Path(__file__).with_name("corpus.jsonl")

MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")

GENERIC = "2,3,5"
GENERIC_NEG = "-1/3,7/2,-12/5"
H10 = "4738291056/8829104735,-1920384756/6473829105,7364519028/2039485716"
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


def main():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv, doc, stdin in cases():
                code, stdout = record(argv, doc, stdin)
                line = {"argv": argv, "exit": code, "stdout": stdout}
                if doc is not None:
                    line["doc"] = doc
                if stdin is not None:
                    line["stdin"] = stdin
                lines.append(json.dumps(line, sort_keys=True))
        finally:
            os.chdir(cwd)
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} cases -> {CORPUS}")


if __name__ == "__main__":
    main()
