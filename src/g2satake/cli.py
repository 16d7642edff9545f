"""Command line front end with machine-readable JSON input and output.

Every pipeline is a subcommand; the same handlers also run from a JSON
job document via ``g2satake run job.json`` (or ``-`` for stdin).  Exact
rationals are serialized as strings "p/q" (plain integers stay bare),
complex numbers as [re, im] pairs, so no binary64 rounding ever touches
an exact result.  Output is deterministic: keys are sorted and nothing
time- or environment-dependent is emitted.

Exit codes: 0 success, 1 schema/usage error, 2 domain error,
3 identity violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .errors import DomainError, G2SatakeError, IdentityViolationError, RootFindingError
from .fibrations import (FibrationParams, alternate_model, alternate_model_ftheory,
                         checked_degeneration_predicates, classify_fibers,
                         kumfib2_model, kummer_quartic_model, standard_model,
                         type_iii_siegel_identity)
from .igusa import (AbsoluteInvariants, IgusaInvariants, SiegelForms,
                    absolute_invariants, derived_forms, humbert_predicates,
                    igusa_from_rosenhain, igusa_from_sextic, igusa_from_siegel,
                    q_form, siegel_from_igusa)
from .qpoly import Poly, discriminant
from .roots import gaussian_roots
from .satake import (PowerSums, phi_map, power_sums_from_igusa,
                     power_sums_from_siegel, reconstruct_from_satake_roots,
                     satake_sextic, satake_sextic_from_siegel,
                     theta_power_sum_consistency)
from .theta import (MAX_RADIUS, PeriodMatrix, check_frobenius,
                    even_theta_constants, rosenhain_from_theta,
                    satake_from_theta)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_DOMAIN = 2
EXIT_IDENTITY = 3


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class PlainInt(int):
    """Structural integer (count, order, exit data): stays a JSON number."""


def _encode(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, PlainInt):
        return int(v)
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    if isinstance(v, float):
        return v
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Poly):
        return {"cluster": [_encode(c) for c in v.coeffs]}
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return {k: _encode(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode(x) for x in v]
    raise TypeError(f"cannot serialize {type(v)}")


def _parse_fraction(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"not a rational: {s!r} ({e})")


def _parse_fraction_list(s, n=None, what="list"):
    parts = s.split(",") if isinstance(s, str) else list(s)
    vals = [_parse_fraction(p) for p in parts]
    if n is not None and len(vals) != n:
        raise SchemaError(f"{what} needs {n} comma-separated rationals, got {len(vals)}")
    return vals


def _parse_float_list(s, n, what):
    parts = s.split(",") if isinstance(s, str) else list(s)
    try:
        vals = [float(p) for p in parts]
    except ValueError as e:
        raise SchemaError(f"{what}: {e}")
    if len(vals) != n:
        raise SchemaError(f"{what} needs {n} comma-separated numbers, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise SchemaError(f"{what} needs finite numbers, got {vals}")
    return vals


def _positive_tolerance(s):
    """argparse type of --tol: a finite number > 0."""
    try:
        v = float(s)
    except ValueError:
        v = math.nan
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {s!r}")
    return v


def _theta_radius(s):
    """argparse type of --theta-radius: an integer from 1 to MAX_RADIUS."""
    try:
        v = int(s)
    except ValueError:
        v = 0
    if not 1 <= v <= MAX_RADIUS:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 1 to {MAX_RADIUS}, got {s!r}")
    return v


# ---------------------------------------------------------------------------
# input resolution: every command accepts one curve/form description
# ---------------------------------------------------------------------------


def _curve_flag(args):
    """The one curve flag given; a schema error unless exactly one is."""
    given = [k for k in ("rosenhain", "igusa", "siegel", "sextic")
             if getattr(args, k)]
    if len(given) != 1:
        raise SchemaError(
            "exactly one of --rosenhain/--igusa/--siegel/--sextic is required")
    return given[0]


def _invariants_from_args(args):
    key = _curve_flag(args)
    if key == "rosenhain":
        lams = _parse_fraction_list(args.rosenhain, 3, "--rosenhain")
        return igusa_from_rosenhain(*lams)
    if key == "igusa":
        vals = _parse_fraction_list(args.igusa, 4, "--igusa")
        return IgusaInvariants(*vals)
    if key == "siegel":
        vals = _parse_fraction_list(args.siegel, 4, "--siegel")
        return igusa_from_siegel(SiegelForms(*vals))
    coeffs = _parse_fraction_list(args.sextic, None, "--sextic")
    return igusa_from_sextic(Poly(coeffs))


def _siegel_from_args(args):
    if _curve_flag(args) == "siegel":
        return SiegelForms(*_parse_fraction_list(args.siegel, 4, "--siegel"))
    return siegel_from_igusa(_invariants_from_args(args))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_igusa(args):
    inv = _invariants_from_args(args)
    out = {
        "invariants": {"I2": inv.I2, "I4": inv.I4, "I6": inv.I6, "I10": inv.I10},
        "degenerate": inv.degenerate,
    }
    if not inv.degenerate:
        ab = absolute_invariants(inv)
        out["absolute"] = {"j1": ab.j1, "j2": ab.j2, "j3": ab.j3}
        s = siegel_from_igusa(inv)
        out["siegel"] = {"psi4": s.psi4, "psi6": s.psi6,
                         "chi10": s.chi10, "chi12": s.chi12}
    else:
        out["absolute"] = None
        out["siegel"] = None
    return out


def cmd_satake_sextic(args):
    s = s4 = None
    if args.power_sums:
        vals = _parse_fraction_list(args.power_sums, 6, "--power-sums")
        if vals[0] != 0:
            raise IdentityViolationError("s1 must vanish for Satake power sums")
        ps = PowerSums(s2=vals[1], s3=vals[2], s5=vals[4], s6=vals[5])
        s4 = vals[3]   # checked against s2^2/4 by the dual construction
    else:
        s = _siegel_from_args(args)
        ps = power_sums_from_siegel(s)
    f = satake_sextic(ps, s4)
    disc = discriminant(f)
    out = {
        "power_sums": {"s1": ps.s1, "s2": ps.s2, "s3": ps.s3,
                       "s4": ps.s4, "s5": ps.s5, "s6": ps.s6},
        "coefficients": list(f.coeffs),
        "discriminant": disc,
        "dual_construction_checked": True,
    }
    if s is not None:
        if f != satake_sextic_from_siegel(s):
            raise IdentityViolationError(
                "power-sum and Siegel-form constructions of the sextic disagree")
        out["Q"] = q_form(s)
        out["discriminant_identity"] = disc == 2**52 * 3**21 * out["Q"]
    return out


def cmd_phi(args):
    if args.absolute:
        j = AbsoluteInvariants(*_parse_fraction_list(args.absolute, 3, "--absolute"))
    else:
        j = absolute_invariants(_invariants_from_args(args))
    res = phi_map(j)
    return {
        "j_source": {"j1": j.j1, "j2": j.j2, "j3": j.j3},
        "j_image": {"j1": res.j_image.j1, "j2": res.j_image.j2,
                    "j3": res.j_image.j3},
        "diagnostics": {
            "K": res.K, "L": res.L, "M": res.M,
            "N_squared": res.N_squared,
            "psi4_image": res.psi4_image, "psi6_image": res.psi6_image,
            "chi10_image": res.chi10_image, "chi12_image": res.chi12_image,
            "Q_source": res.Q_source, "Q_image": res.Q_image,
        },
    }


_MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")
_NO_K3 = ("I10 = 0: the sextic is singular; there is no genus-two curve "
          "and no K3 fibration")


def cmd_fibration(args):
    if args.model not in _MODELS:
        raise SchemaError(f"--model must be one of {_MODELS}")
    if args.model == "kummer1":
        if not args.rosenhain:
            raise SchemaError("--model kummer1 needs --rosenhain")
        _curve_flag(args)   # no second curve flag either
        lams = _parse_fraction_list(args.rosenhain, 3, "--rosenhain")
        # the branch points 0, 1, l1, l2, l3 (and infinity) are distinct
        # exactly when I10 != 0
        if len({0, 1, *lams}) < 5:
            raise DomainError(_NO_K3)
        model = kummer_quartic_model(*lams).jacobian_model()
    elif args.model == "alternate-ftheory" and args.siegel:
        # defined on chi10 = 0 too, where I2 and I10* merge into I12*
        model = alternate_model_ftheory(_siegel_from_args(args))
    else:
        inv = _invariants_from_args(args)
        if inv.degenerate:
            raise DomainError(_NO_K3)
        if args.model == "alternate-ftheory":
            model = alternate_model_ftheory(siegel_from_igusa(inv))
        elif args.model == "kummer23":
            model = kumfib2_model(inv)
        elif args.model == "alternate":
            model = alternate_model(FibrationParams.from_igusa(inv))
        else:
            model = standard_model(FibrationParams.from_igusa(inv))
    census = classify_fibers(model)
    fibers = [{"type": f.fiber_type, "location": f.location,
               "orders": [None if o is None else PlainInt(o) for o in f.orders],
               "count": PlainInt(f.count), "euler": PlainInt(f.euler)}
              for f in census.fibers]
    fibers.sort(key=lambda d: (d["type"], json.dumps(_encode(d["location"]))))
    return {"model": args.model, "fibers": fibers,
            "euler_sum": PlainInt(census.euler_sum)}


def cmd_roundtrip(args):
    if not args.rosenhain:
        raise SchemaError("roundtrip needs --rosenhain")
    lams = _parse_fraction_list(args.rosenhain, 3, "--rosenhain")
    tol = args.tol
    inv = igusa_from_rosenhain(*lams)
    f = satake_sextic(power_sums_from_igusa(inv))
    roots = gaussian_roots(f)
    rec_lams, ordering = reconstruct_from_satake_roots(roots)
    j_rec = absolute_invariants(igusa_from_rosenhain(*rec_lams))
    j_src = absolute_invariants(inv)
    max_rel = max(
        abs(complex(a) - complex(b)) / (1.0 + abs(complex(b)))
        for a, b in zip(j_rec.astuple(), j_src.astuple()))
    out = {
        "status": "ok" if max_rel <= tol else "fail",
        "max_rel_err": max_rel,
        "tol": tol,
        "ordering": [PlainInt(i) for i in ordering],
        "reconstructed_lambdas": [complex(l) for l in rec_lams],
    }
    if out["status"] == "fail":
        raise IdentityViolationError(
            f"round trip error {max_rel:.3e} exceeds tolerance {tol:.1e}")
    return out


def cmd_theta(args):
    if not args.tau:
        raise SchemaError("theta needs --tau re1,im1,rez,imz,re2,im2")
    v = _parse_float_list(args.tau, 6, "--tau")
    tau = PeriodMatrix(complex(v[0], v[1]), complex(v[2], v[3]),
                       complex(v[4], v[5]))
    tc = even_theta_constants(tau, args.theta_radius)
    rep = check_frobenius(tc)
    coords = satake_from_theta(tc)
    out = {
        "theta_constants": list(tc.values),
        "tail_estimates": list(tc.tails),
        "radius": PlainInt(tc.radius),
        "precise": tc.precise,
        "frobenius_residuals": dict(rep.residuals),
        "max_frobenius_residual": rep.max_residual,
        "satake_coordinates": list(coords.x),
        "satake_sum_residual": coords.sum_residual,
        "igusa_quartic_residual": coords.quartic_residual(),
    }
    try:
        lams = rosenhain_from_theta(tc)
        out["rosenhain"] = [complex(l) for l in lams]
        r2, worst = theta_power_sum_consistency(tc)
        out["power_sum_rescaling"] = complex(r2)
        out["power_sum_residual"] = worst
    except DomainError as e:
        out["rosenhain"] = None
        out["degenerate"] = str(e)
    return out


def cmd_predicates(args):
    s = _siegel_from_args(args)
    forms = derived_forms(s)
    out = {"humbert": humbert_predicates(s, forms.q),
           "chi35_squared": forms.chi35_squared, "Q": forms.q}
    if s.chi10 != 0:
        inv = igusa_from_siegel(s)
        p = FibrationParams.from_igusa(inv)
        out["degeneration"], (ok_q, _, _) = checked_degeneration_predicates(p)
        ok_iii, _, _ = type_iii_siegel_identity(p, s)
        if not (ok_q and ok_iii):
            raise IdentityViolationError(
                "frozen degeneration-identity constants fail on this input")
        out["identities_checked"] = True
    else:
        out["degeneration"] = {"so32_enhancement": True}
    return out


_HANDLERS = {
    "igusa": cmd_igusa,
    "satake-sextic": cmd_satake_sextic,
    "phi": cmd_phi,
    "fibration": cmd_fibration,
    "roundtrip": cmd_roundtrip,
    "theta": cmd_theta,
    "predicates": cmd_predicates,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _add_output(p):
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON envelope")


@functools.cache
def build_parser():
    """The argument parser, built once: it costs far more than a parse, and
    each parse returns a fresh namespace.  Each command takes only the
    flags its handler reads, spelt out in full; any other flag, or a
    prefix of one, is a schema error."""
    top = _Parser(prog="g2satake", description=__doc__, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, allow_abbrev=False)
        _add_output(p)
        if name != "theta":
            p.add_argument("--rosenhain",
                           help="lambda1,lambda2,lambda3 (rationals p/q)")
        if name not in ("theta", "roundtrip"):
            p.add_argument("--igusa", help="I2,I4,I6,I10")
            p.add_argument("--siegel", help="psi4,psi6,chi10,chi12")
            p.add_argument("--sextic", help="c0,c1,...,c6 lowest degree first")
        if name == "roundtrip":
            p.add_argument("--tol", type=_positive_tolerance, default=1e-8)
        if name == "satake-sextic":
            p.add_argument("--power-sums", dest="power_sums",
                           help="s1,s2,s3,s4,s5,s6 (overrides curve input)")
        if name == "phi":
            p.add_argument("--absolute", help="j1,j2,j3")
        if name == "fibration":
            p.add_argument("--model", required=True,
                           help="|".join(_MODELS))
        if name == "theta":
            p.add_argument("--tau", help="re1,im1,rez,imz,re2,im2")
            p.add_argument("--theta-radius", dest="theta_radius",
                           type=_theta_radius,
                           help="lattice box radius (default: chosen from Im tau)")
    runp = sub.add_parser("run", allow_abbrev=False)
    runp.add_argument("job", help="JSON job document path, or - for stdin")
    _add_output(runp)
    return top


def _args_from_job(doc):
    if not isinstance(doc, dict) or "command" not in doc:
        raise SchemaError("job document needs a 'command' field")
    command = doc["command"]
    if not isinstance(command, str) or command not in _HANDLERS:
        raise SchemaError(f"unknown command {command!r}; "
                          f"valid: {sorted(_HANDLERS)}")
    payload = {}
    for field in ("input", "options"):
        part = doc.get(field, {})
        if not isinstance(part, dict):
            raise SchemaError(f"job document field {field!r} must be an object, "
                              f"got {part!r}")
        payload.update(part)
    argv = [command]
    for key, val in payload.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, (list, tuple)):
            val = ",".join(str(x) for x in val)
        argv.append(f"{flag}={val}")   # one token, so "-1/2,..." stays a value
    return build_parser().parse_args(argv)


def run(argv=None):
    args = None
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            try:
                if args.job == "-":
                    text = sys.stdin.read()
                else:
                    with open(args.job, encoding="utf-8") as fh:
                        text = fh.read()
            except OSError as e:
                raise SchemaError(f"cannot read job document: {e}")
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as e:
                raise SchemaError(f"invalid JSON job: {e}")
            out_path, pretty = args.out, args.pretty
            args = _args_from_job(doc)
            args.out = args.out or out_path
            args.pretty = args.pretty or pretty
        result = _HANDLERS[args.command](args)
        try:
            payload = _encode(result)
        except ValueError:   # Python's limit on int-to-str conversion
            raise DomainError(
                "the result holds an exact value of more than "
                f"{sys.get_int_max_str_digits()} digits, which cannot be printed")
        envelope = {"command": args.command, "status": "ok", "result": payload}
        code = EXIT_OK
    except SchemaError as e:
        envelope = {"status": "schema-error", "error": str(e)}
        code = EXIT_SCHEMA
    except IdentityViolationError as e:
        envelope = {"status": "identity-violation", "error": str(e)}
        code = EXIT_IDENTITY
    except (DomainError, RootFindingError, G2SatakeError) as e:
        envelope = {"status": "domain-error", "error": str(e),
                    "error_type": type(e).__name__}
        code = EXIT_DOMAIN
    pretty = bool(args and args.pretty)
    indent = 2 if pretty else None
    text = json.dumps(envelope, sort_keys=True, indent=indent)
    out_file = args and args.out
    if code == EXIT_OK and out_file:
        try:
            with open(out_file, "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as e:
            code = EXIT_SCHEMA
            text = json.dumps({"status": "schema-error",
                               "error": f"cannot write --out: {e}"},
                              sort_keys=True, indent=indent)
    print(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
