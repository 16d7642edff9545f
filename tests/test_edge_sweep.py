"""A seeded sweep of edge inputs through every command.

Each job must end in exactly one JSON envelope on stdout, strict JSON
without NaN or Infinity, nothing on stderr, an exit code in {0, 1, 2, 3}
and the status of that code.  Exit 3 is allowed only where the input breaks
a stated constraint: ``--power-sums`` with s1 != 0 or s4 != s2^2/4.

The jobs cover every command and input flag, ``run`` documents from a file
and from stdin, the special loci of ``perfbench/jobs.py`` (Q = 0, chi10 = 0,
I2 = 0, a repeated lambda), the values 0 and 1, repeated and huge values,
malformed rationals and extreme ``--tau`` floats.  Round trips draw no
lambda between about 10^10 and 10^30, where one job takes seconds and the
numeric round trip misses its tolerance (exit 3), for example on
10000000000,20000000000,30000000001 (relative error 1.002) and on
100000000000000000000,2,3: the exact round trip will end that.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from g2satake import cli
from g2satake.igusa import absolute_invariants, igusa_from_rosenhain

STATUS = {0: "ok", 1: "schema-error", 2: "domain-error", 3: "identity-violation"}

HUGE = 10**40 + 7
# rational tokens: 0, 1, signs, fractions, decimal and exponent forms, and
# values far past the double range and far below it
RATIONALS = ("0", "1", "-1", "2", "3", "1/2", "-3/7", "7/3", "1.5", "1e5", "-0",
             str(HUGE), f"-{HUGE}/3", f"1/{HUGE}")
MALFORMED = ("1/0", "abc", "", "nan", "inf", "1//2", "--1", "0x10", "1/2/3", " ")
FLOATS = ("0", "1", "-1", "0.5", "1.86", "-0.26", "1e-5", "1e200", "1e308", "-1e308",
          "1e-308", "5e-324", "3.0e-200")
BAD_FLOATS = ("nan", "inf", "-inf", "1e400", "abc", "")

# the special loci of the benchmark's jobs, by input flag
LOCI = {
    "rosenhain": ("2,3,2/3", "-1,2,-2", "-7/9,-3/4,28/27", "5,-2,-5/2",   # Q = 0
                  "2,3,3", "2/3,2/3,5/7", "0,2,3", "2,1,3", "0,0,0", "1,1,1"),
    "siegel": ("38/69,-21/82,0,-39/56", "3/2,-5/7,0,11/4", "0,0,0,0"),   # chi10 = 0
    "igusa": ("0,17/5,-23/7,11/13", "550,12,-7,0", "0,0,0,0"),   # I2 = 0, I10 = 0
    "sextic": ("1,0,0,0,0,0,1", "0,0,0,0,0,0,1", "0,0,1,0,-3,0,1", "1,2,1"),
    "power_sums": ("0,4,1,4,2,3", "0,1,0,99,0,0", "1,0,0,0,0,0", "0,0,0,0,0,0"),
    "absolute": ("0,1,1", ",".join(map(str, absolute_invariants(
        igusa_from_rosenhain(2, 3, Fraction(2, 3))).astuple()))),   # j1 = 0, q = 0
    "tau": ("0.1,1.2,0,0,0.2,1.5", "0,1,0,1e200,0,1", "0,1e200,0,5e199,0,1e200",
            "0,5e-324,0,0,0,5e-324", "1e308,1,0,0,-1e308,1", "0,1e-300,0,0,0,1e-300"),
}
ARITY = {"rosenhain": 3, "igusa": 4, "siegel": 4, "power_sums": 6, "absolute": 3,
         "tau": 6}
OPTIONS = {"model": (*cli._MODELS, "elliptic", ""),
           "tol": ("1e-8", "1e-3", "1", "0", "-1", "nan", "1e300", "5e-324"),
           "theta_radius": ("1", "2", "3", "0", "101", "2.5", "x")}


def _value(rng, command, key):
    """A value of input flag ``key``: a locus, a list of drawn tokens, or one
    with a malformed token or the wrong number of entries."""
    kind = rng.random()
    if kind < 0.25:
        return rng.choice(LOCI[key])
    floats = key == "tau"
    n = ARITY.get(key) or rng.choice((5, 6, 6, 7))
    if kind > 0.9:
        n = rng.choice((0, 1, n - 1, n + 1))
    pool = FLOATS if floats else RATIONALS
    if command == "phi":   # one huge value only: phi's cost grows fast with height
        pool = pool[:-2]
    tokens = [rng.choice(pool) for _ in range(n)]
    if kind > 0.8 and tokens:
        tokens[rng.randrange(n)] = rng.choice(BAD_FLOATS if floats else MALFORMED)
    return ",".join(tokens)


def _breaks_power_sum_constraints(value):
    try:
        s = [Fraction(v) for v in value.split(",")]
    except (ValueError, ZeroDivisionError):
        return False
    return len(s) == 6 and (s[0] != 0 or s[3] != s[1] ** 2 / 4)


def _jobs(seed=2030, per_input=10):
    """(argv, document or None, stdin or None, may exit 3) of each job."""
    rng = random.Random(seed)
    jobs = []
    for command, (_, inputs, options) in cli.COMMANDS.items():
        for key in inputs:
            for _ in range(per_input):
                flags = {key: _value(rng, command, key)}
                flags.update({o: rng.choice(OPTIONS[o]) for o in options
                              if o == "model" or rng.random() < 0.5})
                may_violate = (key == "power_sums"
                               and _breaks_power_sum_constraints(flags[key]))
                form = rng.choice(("argv",) * 6 + ("file", "stdin"))
                if form == "argv":
                    argv = [command] + [f"{cli._flag(k)}={v}" for k, v in flags.items()]
                    if rng.random() < 0.2:
                        argv.append("--pretty")
                    jobs.append((argv, None, None, may_violate))
                    continue
                doc = {"command": command,
                       "input": {key: flags.pop(key).split(",")}, "options": flags}
                if rng.random() < 0.2:
                    doc["options"]["pretty"] = rng.random() < 0.5
                text = json.dumps(doc)
                jobs.append((["run", "job.json"], text, None, may_violate)
                            if form == "file" else
                            (["run", "-"], None, text, may_violate))
    # documents that are not jobs, a file that is not there, flags spelt apart
    # from their values, two inputs and no input; and a finite tau whose
    # lattice sums overflow to NaN
    for text in ("", "[]", "null", "{not json", '{"command": 5}',
                 '{"command": "igusa", "input": [2, 3, 5]}',
                 '{"command": "igusa", "input": {"rosenhain": {"a": 1}}}',
                 '{"command": "igusa", "input": {"rosenhain": [[1, 2], 3, 5]}}',
                 '{"command": "igusa", "input": {"rosenhain": [2, 3, 5]}, "x": 1}',
                 '{"command": "theta", "input": {"tau": [0, 1e999, 0, 0, 0, 1]}}',
                 '{"command": "roundtrip", "input": {"rosenhain": "2,3,5"},'
                 ' "options": {"tol": true}}'):
        jobs += [(["run", "job.json"], text, None, False),
                 (["run", "-"], None, text, False)]
    jobs += [(argv, None, None, False) for argv in (
        ["run", "missing.json"], ["run", "."], ["igusa", "--rosenhain", "-1,2,3"],
        ["igusa", "--rosenhain", "2,3,5", "--siegel=3,5,7,11"], ["phi"], [],
        ["fibration", "--rosenhain=2,3,5"], ["theta", "--tau=1,2,3"],
        ["theta", "--tau=1e308,1,0,0,-1e308,1"])]
    return jobs


JOBS = _jobs()


def _not_json(constant):
    """``parse_constant``: NaN, Infinity and -Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{constant} in an envelope")


@pytest.mark.parametrize("argv,document,stdin,may_violate", JOBS,
                         ids=[f"{i:03d}-{' '.join(job[0][:1]) or 'none'}"
                              for i, job in enumerate(JOBS)])
def test_every_edge_job_ends_in_one_typed_envelope(argv, document, stdin,
                                                   may_violate, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    if document is not None:
        (tmp_path / "job.json").write_text(document)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    text = out.getvalue()
    envelope, end = json.JSONDecoder(parse_constant=_not_json).raw_decode(text)
    assert text[end:] == "\n", "more than one envelope"
    assert err.getvalue() == ""
    assert code in STATUS
    assert envelope["status"] == STATUS[code], envelope
    assert code != 3 or may_violate, envelope


def test_the_sweep_reaches_every_command_flag_and_form():
    commands = {argv[0] for argv, _, _, _ in JOBS if argv}
    flags = {arg.split("=")[0] for argv, _, _, _ in JOBS for arg in argv}
    documents = [text for _, text, stdin, _ in JOBS if text or stdin]
    assert commands == set(cli.COMMANDS) | {"run"}
    assert {cli._flag(k) for k in cli._INPUTS} <= flags
    assert len(JOBS) >= 250 and len(documents) >= 50
