"""Command line front end with machine-readable JSON input and output.

Every pipeline is a subcommand; the same handlers also run from a JSON
job document via ``g2satake run job.json`` (or ``-`` for stdin).  One
parser reads argv and documents alike, off the table ``COMMANDS``.  Each
envelope is printed by ``json.dumps`` with one ``default`` hook,
``_json_value``: exact values are Fractions and print as strings "p/q",
so no binary64 rounding ever touches an exact result; complex numbers
print as [re, im] pairs, and a bare int is a count and stays a number.
Output is deterministic: keys are sorted and nothing time- or
environment-dependent is emitted.

Exit codes: 0 success, 1 schema/usage error, 2 domain error,
3 identity violation.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import DomainError, G2SatakeError, IdentityViolationError
from .fibrations import (FibrationParams, alternate_model, alternate_model_ftheory,
                         classify_fibers, degeneration_predicates,
                         kumfib2_model, kummer_quartic_model, standard_model,
                         type_iii_siegel_identity)
from .igusa import (SIEGEL_WEIGHTS, AbsoluteInvariants, IgusaInvariants,
                    IgusaPoint, SiegelForms, SiegelPoint, absolute_invariants,
                    chi35_squared, humbert_predicates, igusa_from_rosenhain,
                    igusa_from_sextic, igusa_from_siegel, rosenhain_integers,
                    rosenhain_thomae)
from .qpoly import Poly, discriminant, weighted_values
from .roots import gaussian_roots
from .satake import (PowerSums, SatakeSextic, phi_map,
                     reconstruct_from_satake_roots, satake_discriminant_identity,
                     satake_roots_from_rosenhain, satake_sextic,
                     satake_sextic_on_point, theta_power_sum_consistency)
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


def _json_value(v):
    """``json.dumps``'s ``default``: how a value that is not native JSON
    prints; a cluster Poly as {"cluster": [its coefficients]}."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Poly):
        return {"cluster": list(v.coeffs)}
    raise TypeError(f"cannot serialize {type(v)}")


def _printed(v):
    """``v`` as the JSON value that ``_json_value`` prints it as, each
    Fraction converted to its string once."""
    if isinstance(v, Poly):
        return {"cluster": [_printed(c) for c in v.coeffs]}
    return str(v) if isinstance(v, Fraction) else v


def _dumps(envelope, given):
    return json.dumps(envelope, sort_keys=True, default=_json_value,
                      indent=2 if "pretty" in given else None, allow_nan=False)


def _unprintable(envelope):
    """Why ``_dumps`` refused an ok envelope, as a DomainError.  A non-finite
    float (NaN and infinity are not JSON, RFC 8259) and an int past Python's
    limit on int-to-str conversion both raise ValueError; only the second
    still raises when NaN is allowed."""
    try:
        json.dumps(envelope, default=_json_value)
    except ValueError:
        return DomainError(
            "the result holds an exact value of more than "
            f"{sys.get_int_max_str_digits()} digits, which cannot be printed")
    return DomainError("the result holds a non-finite float (NaN or infinity), "
                       "which JSON cannot print")


def _parse_fraction(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"not a rational: {s!r} ({e})")


def _parse_tau(s, what):
    try:
        v = [float(p) for p in s.split(",")]
    except ValueError as e:
        raise SchemaError(f"{what}: {e}")
    if len(v) != 6:
        raise SchemaError(f"{what} needs 6 comma-separated numbers, got {len(v)}")
    if not all(map(math.isfinite, v)):
        raise SchemaError(f"{what} needs finite numbers, got {v}")
    return PeriodMatrix(complex(v[0], v[1]), complex(v[2], v[3]),
                        complex(v[4], v[5]))


def _checked(convert, accept, what):
    """Parser of an option value: ``convert(s)`` if ``accept`` takes it,
    else an error saying that the value of ``flag`` must be ``what``."""
    def parse(s, flag):
        try:
            v = convert(s)
        except ValueError:
            v = None
        if v is None or not accept(v):
            raise SchemaError(f"argument {flag}: must be {what}, got {s!r}")
        return v
    return parse


class CurvePoint:
    """One curve input and its integral weighted point, built on first use
    and once per job; every curve command reads its values from it.

    The point holds ints; only printed values become Fractions.  ``igusa``
    is the ``IgusaPoint`` (u; I2', I4', I6', I10'), built on Rosenhain input
    from the integer forms alone, else from the input's invariants.
    ``siegel`` is the ``SiegelPoint`` over v = 12 u, on which the Siegel
    forms and ``params`` are ints, divided exactly; on Siegel input with
    chi10 = 0, where there are no Igusa invariants, it is built from the
    forms (``SiegelPoint.of``).  ``satake`` is the ``SatakeSextic`` of that
    point in X = v^2 x: F, built on first use, and on Rosenhain input its
    closed-form roots v^2 x_i, ints since the denominator of the x_i
    divides v^2.  The integer branch points of Rosenhain input and their
    Thomae products (``thomae``) are evaluated once, for the Igusa point
    and the roots both.
    """

    def __init__(self, key, val):
        self.key, self.val = key, val

    def degenerate(self):
        """I10 = 0, where there is no genus-two curve: on Rosenhain input,
        where the branch points 0, 1, l1, l2, l3 (and infinity) are not
        distinct, read off the lambdas."""
        if self.key == "rosenhain":
            return len({0, 1, *self.val}) < 5
        return self.igusa.I10 == 0

    @functools.cached_property
    def thomae(self):
        return rosenhain_thomae(self.val)

    @functools.cached_property
    def igusa(self):
        if self.key == "rosenhain":
            return IgusaPoint.from_rosenhain(self.thomae)
        route = {"siegel": igusa_from_siegel, "sextic": igusa_from_sextic}.get(self.key)
        return IgusaPoint.of(route(self.val) if route else self.val)

    @functools.cached_property
    def siegel(self):
        if self.key == "siegel" and self.val.chi10 == 0:
            return SiegelPoint.of(self.val)
        return self.igusa.siegel()

    def params(self):
        """The fibration parameters over v, ints."""
        return FibrationParams.from_igusa(self.igusa.scaled(12))

    @functools.cached_property
    def satake(self):
        s, roots = self.siegel, None
        if self.key == "rosenhain":
            d, xs = satake_roots_from_rosenhain(self.thomae)
            roots = [s.v**2 // d * x for x in xs]
        return SatakeSextic(roots=roots, siegel=s)


# ---------------------------------------------------------------------------
# command handlers: (input key, parsed input value, **options)
# ---------------------------------------------------------------------------


def cmd_igusa(_key, point):
    """The invariants, j and Siegel forms of the job's point, reduced."""
    inv = point.igusa.reduced()
    out = {"invariants": inv._asdict(), "degenerate": inv.degenerate,
           "absolute": None, "siegel": None}
    if not inv.degenerate:
        out["absolute"] = point.igusa.absolute()._asdict()
        out["siegel"] = point.siegel.reduced()._asdict()
    return out


def cmd_satake_sextic(key, val):
    out = {"dual_construction_checked": True}
    if key == "power_sums":
        if val[0] != 0:
            raise IdentityViolationError("s1 must vanish for Satake power sums")
        ps = PowerSums(s2=val[1], s3=val[2], s5=val[4], s6=val[5])
        f = satake_sextic(ps, val[3])   # s4 checked against s2^2/4
        out["discriminant"] = discriminant(f)
        coefficients = list(f.coeffs)
    else:
        s = val.siegel
        S, f = satake_sextic_on_point(s, val.satake)   # in X = v^2 x
        out["discriminant"], out["Q"] = satake_discriminant_identity(s, val.satake)
        out["discriminant_identity"] = True
        ps = PowerSums(*weighted_values(S, SIEGEL_WEIGHTS, s.v))
        coefficients = weighted_values(f.coeffs, range(12, -1, -2), s.v)
    out["power_sums"] = {f"s{i}": s for i, s in enumerate(ps.astuple(), 1)}
    out["coefficients"] = coefficients
    return out


def cmd_phi(key, val):
    """The moduli map on the job's point; j, of weight 0, is read off its
    integers.  ``--absolute`` input has no curve, and ``phi_map`` builds
    its point at I2 = 1."""
    if key == "absolute":
        j = val
        diagnostics = phi_map(j)._asdict()
    else:
        j = val.igusa.absolute()
        diagnostics = phi_map(j, val.igusa, val.satake)._asdict()
    return {"j_source": j._asdict(),
            "j_image": diagnostics.pop("j_image")._asdict(),
            "diagnostics": diagnostics}


_MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")
_NO_K3 = ("I10 = 0: the sextic is singular; there is no genus-two curve "
          "and no K3 fibration")


def cmd_fibration(key, point, model):
    """Each model is built on the integral point, in its weighted
    coordinate T (t = rho T), and ``classify_fibers`` reads the census back
    into t."""
    if model not in _MODELS:
        raise SchemaError(f"--model must be one of {_MODELS}")
    if model == "kummer1":
        if key != "rosenhain":
            raise SchemaError("--model kummer1 needs --rosenhain")
        if point.degenerate():
            raise DomainError(_NO_K3)
        z, ints = rosenhain_integers(point.val)
        weierstrass = kummer_quartic_model(*ints, z=z).jacobian_model()
        rho = Fraction(1, z)
    else:
        # alternate-ftheory is defined on chi10 = 0 too, where I2 and I10*
        # merge into I12*: Siegel input has no I10 = 0 refusal there
        if (model, key) != ("alternate-ftheory", "siegel") and point.degenerate():
            raise DomainError(_NO_K3)
        v = point.siegel.v
        rho = Fraction(1, v * v)   # t has weight 2 ...
        if model == "standard":
            weierstrass = standard_model(point.params())
            rho = v**4              # ... and -4 in the standard model
        elif model == "alternate-ftheory":
            weierstrass = alternate_model_ftheory(point.siegel, point.satake)
        elif model == "kummer23":
            weierstrass = kumfib2_model(point.igusa.scaled(12), point.satake)
        else:
            weierstrass = alternate_model(point.params(), point.satake)
    census = classify_fibers(weierstrass, rho)
    fibers = [{"type": f.fiber_type, "location": _printed(f.location),
               "orders": f.orders, "count": f.count, "euler": f.euler}
              for f in census.fibers]
    # the order of the printed locations: "p/q" and "infinity" need no
    # escaping, and a cluster's JSON, from "{", sorts after every string
    fibers.sort(key=lambda d: (d["type"], d["location"] if isinstance(d["location"], str)
                               else json.dumps(d["location"])))
    return {"model": model, "fibers": fibers, "euler_sum": census.euler_sum}


def cmd_roundtrip(_key, point, tol):
    """Lambdas rebuilt from the roots of the point's checked Satake sextic."""
    s = point.siegel
    _, F = satake_sextic_on_point(s, point.satake)
    roots = gaussian_roots(Poly(weighted_values(F.coeffs, range(12, -1, -2), s.v)))
    rec_lams, ordering = reconstruct_from_satake_roots(roots)
    j_rec = absolute_invariants(igusa_from_rosenhain(*rec_lams))
    j_src = point.igusa.absolute()
    max_rel = max(
        abs(complex(a) - complex(b)) / (1.0 + abs(complex(b)))
        for a, b in zip(j_rec.astuple(), j_src.astuple()))
    if not max_rel <= tol:   # a NaN error fails too
        raise IdentityViolationError(
            f"round trip error {max_rel:.3e} exceeds tolerance {tol:.1e}")
    return {
        "status": "ok",
        "max_rel_err": max_rel,
        "tol": tol,
        "ordering": ordering,
        "reconstructed_lambdas": [complex(l) for l in rec_lams],
    }


def cmd_theta(_key, tau, theta_radius):
    tc = even_theta_constants(tau, theta_radius)
    residuals = check_frobenius(tc)
    coords = satake_from_theta(tc)
    out = {
        "theta_constants": list(tc.values),
        "tail_estimates": list(tc.tails),
        "radius": tc.radius,
        "precise": tc.precise,
        "frobenius_residuals": residuals,
        "max_frobenius_residual": max(residuals.values()),
        "satake_coordinates": list(coords.x),
        "satake_sum_residual": coords.sum_residual,
        "igusa_quartic_residual": coords.quartic_residual(),
    }
    try:
        lam = rosenhain_from_theta(tc)
        out["rosenhain"] = [complex(l) for l in lam]
        out["power_sum_rescaling"], out["power_sum_residual"] = (
            theta_power_sum_consistency(tc, lam))
    except DomainError as e:
        out["rosenhain"] = None
        out["degenerate"] = str(e)
    return out


def cmd_predicates(key, point):
    s = point.siegel
    _, q = satake_discriminant_identity(s, point.satake)   # Q off disc(f)
    out = {"humbert": humbert_predicates(s, q), "Q": q,
           "chi35_squared": chi35_squared(Fraction(s.chi10, s.v**10), q)}
    if s.chi10 != 0:
        p = point.params()
        out["degeneration"] = degeneration_predicates(p, point.satake)
        type_iii_siegel_identity(p, s)
        out["identities_checked"] = True
    else:
        out["degeneration"] = {"so32_enhancement": True}
    return out


# ---------------------------------------------------------------------------
# the command table, and the parser, input check and dispatch built from it
# ---------------------------------------------------------------------------


def _rationals(n, build):
    """Parser of n comma-separated rationals (any number if n is None)."""
    def parse(s, what):
        vals = [_parse_fraction(p) for p in s.split(",")]
        if n is not None and len(vals) != n:
            raise SchemaError(f"{what} needs {n} comma-separated rationals, got {len(vals)}")
        return build(vals)
    return parse


# input flag -> (help, parser of the value a handler receives); a flag is
# spelt "--" + key, with "-" for "_"
_INPUTS = {
    "rosenhain": ("lambda1,lambda2,lambda3 (rationals p/q)", _rationals(3, list)),
    "igusa": ("I2,I4,I6,I10", _rationals(4, IgusaInvariants._make)),
    "siegel": ("psi4,psi6,chi10,chi12", _rationals(4, SiegelForms._make)),
    "sextic": ("c0,c1,...,c6 lowest degree first", _rationals(None, Poly)),
    "power_sums": ("s1,s2,s3,s4,s5,s6", _rationals(6, list)),
    "absolute": ("j1,j2,j3", _rationals(3, AbsoluteInvariants._make)),
    "tau": ("re1,im1,rez,imz,re2,im2", _parse_tau),
}
_CURVE = ("rosenhain", "igusa", "siegel", "sextic")

# option flag -> help, "required" or "default", and "type": (value, flag) -> parsed
_OPTIONS = {
    "model": {"required": True, "help": "|".join(_MODELS)},
    "tol": {"help": "round-trip tolerance on j (default: 1e-8)", "default": 1e-8,
            "type": _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")},
    "theta_radius": {"type": _checked(int, lambda v: 1 <= v <= MAX_RADIUS,
                                      f"an integer from 1 to {MAX_RADIUS}"),
                     "help": "lattice box radius (default: chosen from Im tau)"},
}

# command -> (handler, input flags, option flags): the one place that names
# them; exactly one input flag is given
COMMANDS = {
    "igusa": (cmd_igusa, _CURVE, ()),
    "satake-sextic": (cmd_satake_sextic, _CURVE + ("power_sums",), ()),
    "phi": (cmd_phi, _CURVE + ("absolute",), ()),
    "fibration": (cmd_fibration, _CURVE, ("model",)),
    "roundtrip": (cmd_roundtrip, ("rosenhain",), ("tol",)),
    "theta": (cmd_theta, ("tau",), ("theta_radius",)),
    "predicates": (cmd_predicates, _CURVE, ()),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _parse(argv):
    """The command of ``argv`` and {key: value} of the flags it gives, read
    off the table.  A flag's value follows "=" or is the next token, even
    one starting with "-"; a document gives (flag, "=", value or None if
    bare).  The first token that is not a flag is the command, the second
    the job of ``run``.  The flags are None if -h or --help comes first."""
    tokens, command, keys, given, unread = iter(argv), None, {}, {}, []
    for token in tokens:
        flag, eq, value = token if isinstance(token, tuple) else (
            token.partition("=") if token[:2] == "--" else (token, "", None))
        key = keys.get(flag)
        if not eq:
            value = next(tokens, None) if key not in (None, "pretty") else None
        if flag in ("-h", "--help") and value is None:
            return command, None
        if key is None and (flag[:1] != "-" or flag == "-"):   # not a flag
            if command is None:
                if flag not in COMMANDS and flag != "run":
                    raise SchemaError(f"argument command: invalid choice: {flag!r} "
                                      f"(choose from {str([*COMMANDS, 'run'])[1:-1]})")
                command, (_, inputs, options) = flag, COMMANDS.get(flag, (0, (), ()))
                keys = {_flag(k): k for k in ("out", "pretty", *inputs, *options)}
                continue
            if command == "run" and "job" not in given:
                key, value = "job", flag
        if key is None:
            unread.append(flag if value is None else f"{flag}={value}")
            continue
        if key == "pretty" and value is not None:
            raise SchemaError(f"argument {flag}: ignored explicit argument {value!r}")
        if key != "pretty" and value is None:
            raise SchemaError(f"argument {flag}: expected one argument")
        if "type" in _OPTIONS.get(key, ()):
            value = _OPTIONS[key]["type"](value, flag)
        if key in given and key not in ("out", "pretty"):
            raise SchemaError(f"command line gives {flag} more than once")
        given[key] = value
    missing = ["command"] if command is None else [
        _flag(k) for k in options if "required" in _OPTIONS[k] and k not in given]
    missing += ["job"] * (command == "run" and "job" not in given)
    if missing:
        raise SchemaError(f"the following arguments are required: {', '.join(missing)}")
    if unread:
        raise SchemaError(f"unrecognized arguments: {' '.join(unread)}")
    return command, {**{k: _OPTIONS[k].get("default") for k in options}, **given}


def _usage(command):
    """The -h/--help listing: a line per flag of ``command``, or of all."""
    return "\n".join([
        "usage: g2satake COMMAND --FLAG VALUE ... [--out FILE] [--pretty] | run JOB"
    ] + [f"{name} {_flag(k)} {_INPUTS[k][0] if k in _INPUTS else _OPTIONS[k]['help']}"
         for name, (_, inputs, options) in COMMANDS.items() if command in (None, name)
         for k in inputs + options])


def _dispatch(command, given):
    """Check that exactly one input flag is given (an empty value counts),
    parse it and call the handler with it and the command's options; a
    curve input reaches the handler as its ``CurvePoint``."""
    handler, inputs, options = COMMANDS[command]
    present = [k for k in inputs if k in given]
    if len(present) == 1:
        key = present[0]
        value = _INPUTS[key][1](given[key], _flag(key))
        if key in _CURVE:
            value = CurvePoint(key, value)
        return handler(key, value, **{k: given[k] for k in options})
    if len(inputs) == 1:
        raise SchemaError(f"{command} needs {_flag(inputs[0])} "
                          f"{_INPUTS[inputs[0]][0]}")
    # name every input once one beyond the curve flags (--power-sums) is given
    names = inputs if set(present) - set(_CURVE) else _CURVE
    raise SchemaError(f"exactly one of {'/'.join(map(_flag, names))} is required")


def _args_from_job(job, run_given):
    """``_parse`` of the job document ``job``: its ``input`` and
    ``options`` are flags (``true`` a bare flag, ``false`` none), read
    after the run's own --out and --pretty, so that the document's win.  A
    file, or a strictly decoding stdin, that is not UTF-8 is a schema
    error, as an unreadable file is."""
    try:
        if job == "-":
            text = sys.stdin.read()
        else:
            with open(job, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read job document: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON job: {e}")
    if not isinstance(doc, dict) or "command" not in doc:
        raise SchemaError("job document needs a 'command' field")
    command = doc["command"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; "
                          f"valid: {sorted(COMMANDS)}")
    unknown = sorted(set(doc) - {"command", "input", "options"})
    if unknown:
        raise SchemaError(f"unknown job document fields {unknown}; "
                          "valid: ['command', 'input', 'options']")
    flags = {}
    for field in ("input", "options"):
        part = doc.get(field, {})
        if not isinstance(part, dict):
            raise SchemaError(f"job document field {field!r} must be an object, "
                              f"got {part!r}")
        for key, val in part.items():
            if _flag(key) in flags:
                raise SchemaError(f"job document gives {_flag(key)} more than once")
            flags[_flag(key)] = ",".join(map(str, val)) if isinstance(val, list) else val
    return _parse([command, *((_flag(k), "=", v) for k, v in run_given.items()),
                   *((flag, "=", None if val is True else str(val))
                     for flag, val in flags.items() if val is not False)])


def run(argv=None):
    given = {}
    try:
        command, given = _parse(sys.argv[1:] if argv is None else argv)
        if command == "run" and given is not None:
            command, given = _args_from_job(given.pop("job"), given)
        if given is None:   # -h or --help
            given, text = {}, _usage(command)
        else:
            envelope = {"command": command, "status": "ok",
                        "result": _dispatch(command, given)}
            try:
                text = _dumps(envelope, given)
            except ValueError:
                raise _unprintable(envelope)
        code = EXIT_OK
    except SchemaError as e:
        envelope = {"status": "schema-error", "error": str(e)}
        code = EXIT_SCHEMA
    except IdentityViolationError as e:
        envelope = {"status": "identity-violation", "error": str(e)}
        code = EXIT_IDENTITY
    except G2SatakeError as e:
        envelope = {"status": "domain-error", "error": str(e),
                    "error_type": type(e).__name__}
        code = EXIT_DOMAIN
    if code != EXIT_OK:
        text = _dumps(envelope, given)
    elif given.get("out"):
        try:
            with open(given["out"], "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as e:
            code = EXIT_SCHEMA
            text = _dumps({"status": "schema-error",
                           "error": f"cannot write --out: {e}"}, given)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:   # the reader left: no traceback (Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
