"""Seeded job generation for the three benchmark workloads.

A workload is a sequence of cycles.  Every cycle holds the same fixed
multiset of job templates (command, input form, height, locus); the seed
only draws the rational inputs and the order of the jobs inside a cycle.
A run executes whole cycles, so every run measures the same mix and the
run-to-run spread comes from timing, not from a different share of tall
or failing jobs.

Heights: an ``hN`` input has numerators and denominators of exactly N
decimal digits.  Special-locus inputs (Q = 0, chi10 = 0, I2 = 0 and
repeated lambda) are small and tagged ``h2``.  Generic lambdas are drawn
off all of these loci, so that every cycle holds the same number of
special-locus jobs and hence the same number of expected failures.

Expected exit codes come from the mathematics: 0 wherever the quantity
is defined, 2 (domain error) where it is not (the moduli map on I2 = 0,
I10 = 0 or Q = 0, a K3 fibration of a singular sextic, Igusa invariants
on the product locus), 1 for malformed input and 3 for power sums that
violate s4 = s2^2/4.  Known defects of the program therefore show up as
failures instead of being written into the expectations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")
EXACT_COMMANDS = ("igusa", "predicates", "satake-sextic", "phi")
HEIGHTS = (2, 10, 30, 60)

# theta inputs of the cli-cold workload: a fixed family, one per cycle in turn
TAU_FAMILY = (
    (0.44, 1.86, -0.26, 0.81, -0.1, 1.93),
    (0.12, 1.25, 0.31, 0.42, -0.37, 1.4),
    (0.3, 1.1, 0.2, 0.4, -0.4, 1.7),
    (0.05, 2.2, -0.15, 0.6, 0.45, 1.15),
)


@dataclass
class Job:
    """One CLI invocation and what the mathematics says it must return.

    ``argv`` is the argument list after the program name.  ``stdin`` is
    fed to the process (``run -``); ``doc_path``/``doc`` is a job document
    written before the run.  ``facts`` carries the exact input the oracle
    needs to check a successful result.
    """

    argv: list
    expect: int
    command: str
    height: str = "h2"
    locus: str = "generic"
    form: str = "argv"
    stdin: str | None = None
    doc_path: str | None = None
    doc: dict | None = None
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded exact inputs
# ---------------------------------------------------------------------------


def rational(rng, digits, sign=None):
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    s = sign if sign is not None else rng.choice((-1, 1))
    return Fraction(s * rng.randint(lo, hi), rng.randint(lo, hi))


def _pairings(points):
    """The 15 ways to split six points into three pairs."""
    if not points:
        yield []
        return
    a, rest = points[0], points[1:]
    for k, b in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1:]):
            yield [(a, b)] + tail


def on_q0(lams):
    """Q = 0 (the Humbert surface H4): some Moebius involution swaps the six
    branch points 0, 1, oo, l1, l2, l3 in three pairs.  The pairs {x, x'}
    of one involution satisfy A x x' + B (x + x') + C = 0, so three pairs
    belong to one involution iff the rows (x x', x + x', 1) -- (x, 1, 0)
    for a pair (x, oo) -- are linearly dependent."""

    def row(a, b):
        return (b, 1, 0) if a is None else (a * b, a + b, 1)

    for pairs in _pairings([None, Fraction(0), Fraction(1), *lams]):
        (a, b, c), (d, e, f), (g, h, i) = (row(*p) for p in pairs)
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0:
            return True
    return False


def lambdas(rng, digits, first_sign=None):
    """Three distinct Rosenhain lambdas, none 0 or 1 and not on Q = 0."""
    while True:
        out = []
        while len(out) < 3:
            v = rational(rng, digits, first_sign if not out else None)
            if v not in out and v not in (0, 1):
                out.append(v)
        if not on_q0(out):
            return out


def q0_lambdas(rng):
    """(c, b, c/b): x -> c/x permutes the roots {0, inf, 1, c, b, c/b}, so
    the curve has an extra involution and Q = 0."""
    while True:
        c, b = rational(rng, 1), rational(rng, 1)
        lams = [c, b, c / b]
        if len(set(lams)) == 3 and not set(lams) & {0, 1}:
            return lams


# A Q = 0 curve on which roundtrip misses its 1e-8 tolerance (relative
# error 3.8e-5): the Satake sextic has a repeated root there.  Seeded Q = 0
# inputs would make the failure count depend on the seed, and most of them
# take seconds per round trip, so this one cheap input stands for the locus.
Q0_ROUNDTRIP = [Fraction(-7, 9), Fraction(-3, 4), Fraction(28, 27)]


def repeated_lambdas(rng):
    """A repeated lambda: the sextic is singular and I10 = 0."""
    a, b = lambdas(rng, 2)[:2]
    return [a, a, b]


def siegel_product_locus(rng):
    """(psi4, psi6, chi10, chi12) with chi10 = 0."""
    return [rational(rng, 2), rational(rng, 2), Fraction(0), rational(rng, 2)]


def igusa_i2_zero(rng):
    """(I2, I4, I6, I10) with I2 = 0 and I10 != 0."""
    return [Fraction(0), rational(rng, 2), rational(rng, 2), rational(rng, 2)]


def bad_power_sums(rng):
    """s1..s6 with s1 = 0 but s4 != s2^2/4."""
    s2, s3, s5, s6 = (rational(rng, 2) for _ in range(4))
    return [Fraction(0), s2, s3, s2 * s2 / 4 + rational(rng, 1, 1), s5, s6]


def period_matrix(rng, lmin):
    """A reduced-looking tau whose Im part has smallest eigenvalue lmin."""
    lmax = lmin * rng.uniform(1.0, 2.5)
    ang = rng.uniform(0.0, math.pi)
    c, s = math.cos(ang), math.sin(ang)
    y1 = lmin * c * c + lmax * s * s
    y2 = lmin * s * s + lmax * c * c
    y12 = (lmax - lmin) * c * s
    x1, x12, x2 = (rng.uniform(-0.5, 0.5) for _ in range(3))
    return [round(v, 6) for v in (x1, y1, x12, y12, x2, y2)]


def radius_for(lmin, tail=1e-16):
    """Smallest radius whose first omitted shell is below ``tail``."""
    return max(2, math.ceil(math.sqrt(-math.log(tail) / (math.pi * lmin))) + 1)


def csv(values):
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# job construction
# ---------------------------------------------------------------------------


def curve_job(command, flag, values, expect, height="h2", locus="generic",
              model=None):
    argv = [command] + (["--model", model] if model else [])
    argv.append(f"--{flag}={csv(values)}")
    name = command if model is None else f"fibration:{model}"
    return Job(argv=argv, expect=expect, command=name, height=height,
               locus=locus, facts={flag: [str(v) for v in values]})


def exact_jobs(draw, expect, height="h2", locus="generic", flag="rosenhain",
               commands=None):
    """The exact-sweep commands, each on a fresh input from ``draw()``, so
    that a run averages over many inputs; ``expect`` maps a command name to
    a non-zero expected exit code, ``commands`` keeps a subset."""
    names = EXACT_COMMANDS + tuple(f"fibration:{m}" for m in MODELS)
    out = []
    for name in names:
        if commands is None or name in commands:
            command, _, model = name.partition(":")
            out.append(curve_job(command, flag, draw(), expect.get(name, 0),
                                 height, locus, model=model or None))
    return out


def doc_job(job, form, path=None):
    """The same job as a ``run`` job document, from a file or stdin."""
    command, _, model = job.command.partition(":")
    doc = {"command": command, "input": dict(job.facts)}
    if model:
        doc["options"] = {"model": model}
    text = json.dumps(doc)
    if form == "stdin":
        return Job(argv=["run", "-"], expect=job.expect, command=job.command,
                   form="stdin", stdin=text, facts=job.facts)
    return Job(argv=["run", path], expect=job.expect, command=job.command,
               form="file", doc_path=path, doc=doc, facts=job.facts)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed, heights=HEIGHTS, job_dir=None):
        self.seed = seed
        self.heights = tuple(heights)
        self.job_dir = job_dir

    def rng(self, cycle):
        return random.Random(f"{self.name}:{self.seed}:{cycle}")

    def cycle(self, k):
        rng = self.rng(k)
        jobs = [j for j in self.templates(rng, k)
                if int(j.height[1:]) in self.heights]
        rng.shuffle(jobs)
        return jobs

    def templates(self, rng, k):
        raise NotImplementedError

    def warmup(self):
        """One untimed job per command, at the smallest height."""
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        first = {}
        for j in self.templates(rng, 0):
            if (j.height, j.locus, j.form, j.expect) == ("h2", "generic", "argv", 0):
                first.setdefault(j.command, j)
        return list(first.values())


class CliCold(Workload):
    """Fresh ``python -m g2satake.cli`` processes, 2-digit inputs."""

    name = "cli-cold"
    in_process = False

    def templates(self, rng, k):
        tau = list(TAU_FAMILY[k % len(TAU_FAMILY)])
        model = MODELS[k % len(MODELS)]

        def by_command(first_sign):
            lam = lambdas(rng, 2, first_sign)
            return [
                curve_job("igusa", "rosenhain", lam, 0),
                curve_job("satake-sextic", "rosenhain", lam, 0),
                curve_job("phi", "rosenhain", lam, 0),
                curve_job("fibration", "rosenhain", lam, 0, model=model),
                curve_job("roundtrip", "rosenhain", lam, 0),
                Job(argv=["theta", f"--tau={csv(tau)}"], expect=0,
                    command="theta", facts={"tau": [str(v) for v in tau]}),
                curve_job("predicates", "rosenhain", lam, 0),
            ]

        jobs = by_command(None)
        # job documents: positive first lambdas, except the satake-sextic and
        # predicates documents whose first lambda is negative
        for form in ("file", "stdin"):
            for i, job in enumerate(by_command(1)):
                if job.command in ("satake-sextic", "predicates"):
                    lam = lambdas(rng, 2, first_sign=-1)
                    job = curve_job(job.command, "rosenhain", lam, 0)
                path = f"{self.job_dir}/c{k}-{form}-{i}.json"
                jobs.append(doc_job(job, form, path))
        lam = lambdas(rng, 2)
        rep = repeated_lambdas(rng)
        jobs += [
            Job(argv=["igusa", f"--rosenhain=1/0,{csv(lam[1:])}"], expect=1,
                command="igusa", locus="malformed"),
            Job(argv=["run", "-"], expect=1, command="run", form="stdin",
                locus="malformed",
                stdin=json.dumps({"command": "genus3",
                                  "input": {"rosenhain": csv(lam)}})),
            Job(argv=["fibration", "--model", "elliptic",
                      f"--rosenhain={csv(lam)}"],
                expect=1, command="fibration", locus="malformed"),
            curve_job("phi", "rosenhain", rep, 2, locus="repeated"),
            curve_job("phi", "igusa", igusa_i2_zero(rng), 2, locus="I2=0"),
            Job(argv=["satake-sextic",
                      f"--power-sums={csv(bad_power_sums(rng))}"],
                expect=3, command="satake-sextic", locus="bad-power-sums"),
            Job(argv=["run", f"{self.job_dir}/missing-{k}.json"], expect=1,
                command="run", form="file", locus="missing-file"),
        ]
        return jobs


class ExactSweep(Workload):
    """In-process exact pipelines across lambda heights and special loci."""

    name = "exact-sweep"

    def templates(self, rng, k):
        jobs = []
        for _ in range(3):
            jobs += exact_jobs(lambda: lambdas(rng, 2), {})
        jobs += exact_jobs(lambda: lambdas(rng, 10), {}, height="h10")
        # two tall rounds put the 90th percentile inside the block of h30
        # fibration and satake-sextic jobs instead of at its edge
        for _ in range(2):
            jobs += exact_jobs(lambda: lambdas(rng, 30), {}, height="h30")
        # at 60 digits one phi job alone takes about 5 s, so only phi and one
        # fibration run there
        jobs += exact_jobs(lambda: lambdas(rng, 60), {}, height="h60",
                           commands={"phi", "fibration:alternate"})
        # special loci: the moduli map is undefined on Q = 0, I2 = 0 and
        # I10 = 0; no genus-two curve (hence no K3) exists at I10 = 0; the
        # Igusa invariants are undefined on the product locus chi10 = 0
        jobs += exact_jobs(lambda: q0_lambdas(rng), {"phi": 2}, locus="Q=0",
                           commands={"predicates", "satake-sextic", "phi",
                                     "fibration:alternate",
                                     "fibration:standard"})
        jobs += exact_jobs(lambda: siegel_product_locus(rng), {"igusa": 2},
                           locus="chi10=0", flag="siegel",
                           commands={"igusa", "predicates", "satake-sextic",
                                     "fibration:alternate-ftheory"})
        jobs += exact_jobs(lambda: igusa_i2_zero(rng), {"phi": 2},
                           locus="I2=0", flag="igusa",
                           commands={"igusa", "satake-sextic", "phi",
                                     "fibration:alternate",
                                     "fibration:kummer23"})
        no_curve = {"phi": 2, **{f"fibration:{m}": 2 for m in MODELS}}
        jobs += exact_jobs(lambda: repeated_lambdas(rng), no_curve,
                           locus="repeated",
                           commands={"igusa", "predicates", "phi",
                                     "fibration:kummer1",
                                     "fibration:standard"})
        return jobs


class NumericRoundtrip(Workload):
    """In-process theta constants and Satake-root reconstruction."""

    name = "numeric-roundtrip"

    def templates(self, rng, k):
        jobs = []
        # smallest eigenvalues of Im tau stratified over [0.4, 2.0]
        for i in range(16):
            lmin = 0.4 + (i + rng.random()) * (1.6 / 16)
            tau = period_matrix(rng, lmin)
            argv = ["theta", f"--tau={csv(tau)}"]
            if i % 4 == 3:
                argv += ["--theta-radius", str(radius_for(lmin))]
            jobs.append(Job(argv=argv, expect=0, command="theta"))
        # 10-digit and Q = 0 round trips cost 30-400 ms; kept below a tenth
        # of the jobs so that the 90th percentile reads the 2-digit round
        # trips, whose cost varies far less
        jobs += [curve_job("roundtrip", "rosenhain", lambdas(rng, 2), 0)
                 for _ in range(8)]
        jobs.append(curve_job("roundtrip", "rosenhain", lambdas(rng, 10), 0,
                              "h10"))
        jobs.append(curve_job("roundtrip", "rosenhain", Q0_ROUNDTRIP, 0,
                              locus="Q=0"))
        return jobs


WORKLOADS = {w.name: w for w in (CliCold, ExactSweep, NumericRoundtrip)}
