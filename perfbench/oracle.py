"""Outcome oracle: is a job's result what the mathematics requires?

``classify(job, code, stdout, error)`` returns None for a correct outcome
or one of three failure classes:

* ``cli.uncaught``     -- an exception escaped the CLI (in process), or the
                          process wrote a traceback / no JSON envelope;
* ``cli.wrong_status`` -- the exit code differs from the expected one;
* ``cli.check_failed`` -- the exit code is right but the envelope is not:
                          an error envelope of the wrong type, or a result
                          that violates an identity checked below.

The checks recompute identities from the exact values in the envelope;
they never compare against output recorded from the program.
"""

from __future__ import annotations

import json
from fractions import Fraction

from jobs import on_q0

UNCAUGHT = "cli.uncaught"
WRONG_STATUS = "cli.wrong_status"
CHECK_FAILED = "cli.check_failed"
CLASSES = (UNCAUGHT, WRONG_STATUS, CHECK_FAILED)

STATUS_OF_CODE = {0: "ok", 1: "schema-error", 2: "domain-error",
                  3: "identity-violation"}
THETA_RESIDUAL_BOUND = 1e-10


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def classify(job, code, stdout, error=None):
    if error is not None or code is None:
        return UNCAUGHT
    try:
        env = json.loads(stdout)
    except ValueError:
        return UNCAUGHT
    if not isinstance(env, dict):
        return UNCAUGHT
    if code != job.expect:
        return WRONG_STATUS
    try:
        check_envelope(job, code, env)
    except (CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError):
        return CHECK_FAILED
    return None


def check_envelope(job, code, env):
    _require(env.get("status") == STATUS_OF_CODE.get(code), "envelope status")
    if code != 0:
        _require(isinstance(env.get("error"), str) and env["error"], "message")
        if code == 2:
            _require(isinstance(env.get("error_type"), str), "error_type")
        return
    res = env["result"]
    command = job.command.partition(":")[0]
    CHECKS[command](job, res)


def _lambda_i10(lams):
    """I10 of y^2 = x(x-1)(x-l1)(x-l2)(x-l3), straight from the roots."""
    roots = [Fraction(0), Fraction(1)] + lams
    d = Fraction(1)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d *= (roots[i] - roots[j]) ** 2
    return d


def check_igusa(job, res):
    inv = {k: Fraction(v) for k, v in res["invariants"].items()}
    I2, I4, I6, I10 = inv["I2"], inv["I4"], inv["I6"], inv["I10"]
    if "rosenhain" in job.facts:
        lams = [Fraction(v) for v in job.facts["rosenhain"]]
        _require(I10 == _lambda_i10(lams), "I10 = disc of the quintic")
    if "igusa" in job.facts:
        _require([I2, I4, I6, I10] == [Fraction(v) for v in job.facts["igusa"]],
                 "invariants as given")
    _require(res["degenerate"] is (I10 == 0), "degenerate iff I10 = 0")
    if I10 == 0:
        _require(res["absolute"] is None, "no absolute invariants")
        return
    j = {k: Fraction(v) for k, v in res["absolute"].items()}
    _require(j["j1"] * I10 == I2**5, "j1 I10 = I2^5")
    _require(j["j2"] * I10 == I4 * I2**3, "j2 I10 = I4 I2^3")
    _require(j["j3"] * I10 == I6 * I2**2, "j3 I10 = I6 I2^2")
    s = {k: Fraction(v) for k, v in res["siegel"].items()}
    _require(s["psi4"] == I4 / 4, "psi4 = I4/4")
    _require(s["chi10"] == -I10 / 2**14, "chi10 = -I10/2^14")


def _chi10_of_input(job):
    if "siegel" in job.facts:
        return Fraction(job.facts["siegel"][2])
    if "igusa" in job.facts:
        return -Fraction(job.facts["igusa"][3]) / 2**14
    return -_lambda_i10([Fraction(v) for v in job.facts["rosenhain"]]) / 2**14


def check_predicates(job, res):
    Q = Fraction(res["Q"])
    chi10 = _chi10_of_input(job)
    _require(res["humbert"]["on_H1"] is (chi10 == 0), "H1 iff chi10 = 0")
    _require(res["humbert"]["on_H4"] is (Q == 0), "H4 iff Q = 0")
    _require(job.locus != "Q=0" or Q == 0, "Q vanishes on the Q = 0 family")
    if "rosenhain" in job.facts and chi10 != 0:
        lams = [Fraction(v) for v in job.facts["rosenhain"]]
        _require((Q == 0) is on_q0(lams), "Q = 0 iff an extra involution")
    _require(Fraction(res["chi35_squared"]) == chi10 * Q / (2**12 * 3**9),
             "chi35^2 = chi10 Q / (2^12 3^9)")
    if chi10 == 0:
        _require(res["degeneration"]["so32_enhancement"] is True, "so(32)")
    else:
        _require(res["identities_checked"] is True, "identities checked")


def check_satake_sextic(job, res):
    ps = {k: Fraction(v) for k, v in res["power_sums"].items()}
    _require(ps["s1"] == 0 and ps["s4"] == ps["s2"] ** 2 / 4,
             "s1 = 0, s4 = s2^2/4")
    coeffs = [Fraction(c) for c in res["coefficients"]]
    _require(len(coeffs) == 7 and coeffs[6] == 1 and coeffs[5] == 0,
             "monic sextic without x^5 term")
    _require(res["discriminant_identity"] is True, "discriminant_identity")
    _require(Fraction(res["discriminant"]) == 2**52 * 3**21 * Fraction(res["Q"]),
             "disc(f) = 2^52 3^21 Q")
    _require(job.locus != "Q=0" or Fraction(res["Q"]) == 0,
             "Q vanishes on the Q = 0 family")


def check_phi(job, res):
    d = {k: Fraction(v) for k, v in res["diagnostics"].items()}
    q_src = d["Q_source"]
    _require(d["chi10_image"] == -(2**38) * 3**21 * q_src,
             "chi10' = -2^38 3^21 Q")
    _require(d["chi12_image"] == 2**40 * 3**23 * q_src * d["M"],
             "chi12' = 2^40 3^23 Q M")
    _require(d["N_squared"] * 2**210 * 3**132 * q_src**3 == d["Q_image"],
             "N^2 = Q' / (2^210 3^132 Q^3)")


def check_fibration(job, res):
    _require(res["euler_sum"] == 24, "K3: Euler sum 24")
    _require(sum(f["euler"] for f in res["fibers"]) == 24, "fiber Euler sum")


def check_roundtrip(job, res):
    _require(res["status"] == "ok", "roundtrip status ok")
    _require(res["max_rel_err"] <= res["tol"], "error within tol")


def check_theta(job, res):
    _require(len(res["theta_constants"]) == 10, "ten even constants")
    _require(res["max_frobenius_residual"] < THETA_RESIDUAL_BOUND,
             "Frobenius identities")


CHECKS = {
    "igusa": check_igusa,
    "predicates": check_predicates,
    "satake-sextic": check_satake_sextic,
    "phi": check_phi,
    "fibration": check_fibration,
    "roundtrip": check_roundtrip,
    "theta": check_theta,
}
