"""The integral weighted point of a curve input: ``igusa.IgusaPoint`` is
right and minimal, a job builds it once (``cli.CurvePoint``), and every
fibration census read off it equals the census of the Fraction invariants."""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from g2satake import cli, fibrations, igusa, qpoly, satake, theta
from g2satake.fibrations import (FibrationParams, alternate_model,
                                 alternate_model_ftheory, classify_fibers,
                                 kumfib2_model, kummer_quartic_model,
                                 standard_model)
from g2satake.igusa import (IGUSA_WEIGHTS, IgusaInvariants, IgusaPoint,
                            SiegelForms, SiegelPoint, absolute_invariants,
                            igusa_from_rosenhain, igusa_from_sextic,
                            igusa_from_siegel, q_form, rosenhain_thomae,
                            siegel_from_igusa)
from g2satake.qpoly import discriminant, integral_representative
from g2satake.satake import (SatakeSextic, power_sums_from_siegel,
                             satake_discriminant_identity, satake_sextic,
                             satake_sextic_from_siegel)
from conftest import Q0_LAMBDAS, lambdas_of_height, satake_in_x, satake_on_point

_RNG = random.Random(20261019)

# numerators that share primes with the lcm of the denominators
SHARED_PRIMES = [(F(2, 3), F(9, 10), F(35, 6)),
                 (F(15, 4), F(-8, 45), F(21, 20)),
                 (F(49, 12), F(6, 7), F(-26, 21)),
                 (F(4, 9), F(27, 8), F(-16, 3))]

ROSENHAIN = {
    **{f"h{d}-{i}": tuple(lambdas_of_height(_RNG, d))
       for d in (2, 10, 30, 60) for i in range(2)},
    "Q=0": Q0_LAMBDAS[1],
    "repeated": (F(2, 3), F(2, 3), F(5, 7)),   # I10 = 0
    **{f"shared-{i}": lams for i, lams in enumerate(SHARED_PRIMES)},
}

MODELS = ("kummer1", "kummer23", "alternate", "alternate-ftheory", "standard")


@pytest.mark.parametrize("name", sorted(ROSENHAIN))
def test_the_rosenhain_point_is_right_and_minimal(name):
    lams = ROSENHAIN[name]
    point = IgusaPoint.from_rosenhain(rosenhain_thomae(lams))
    inv = igusa_from_rosenhain(*lams)
    assert point.u > 0 and all(isinstance(v, int) for v in point)
    assert all(F(v, point.u**w) == x for v, w, x in
               zip(point.astuple(), IGUSA_WEIGHTS, inv.astuple()))
    # no larger than the representative of the reduced invariants
    r, _ = integral_representative(inv.astuple(), IGUSA_WEIGHTS)
    assert r % point.u == 0


def test_the_siegel_point_is_the_dictionary_over_12u():
    lams = ROSENHAIN["h10-0"]
    point = IgusaPoint.from_rosenhain(rosenhain_thomae(lams))
    s = point.siegel()
    assert s.v == 12 * point.u
    expected = siegel_from_igusa(igusa_from_rosenhain(*lams))
    assert all(F(v, s.v**w) == x for v, w, x in
               zip(s.astuple(), igusa.SIEGEL_WEIGHTS, expected.astuple()))


def test_the_discriminant_identity_on_the_point_gives_the_curves_values():
    lams = ROSENHAIN["h10-1"]
    forms = siegel_from_igusa(igusa_from_rosenhain(*lams))
    expected = (discriminant(satake_sextic(power_sums_from_siegel(forms))),
                q_form(forms))
    s, sextic = satake_on_point(lams)   # in X = v^2 x, over v = 12 u
    minimal = SiegelPoint.of(forms)
    # the roots and the subresultant route, and the point of least unit
    for point, value in ((s, sextic), (s, SatakeSextic(sextic.F)),
                         (minimal, SatakeSextic(satake_sextic_from_siegel(minimal)))):
        assert satake_discriminant_identity(point, value) == expected


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def _fibers(census_fibers):
    """(type, encoded location, orders, count) of each fiber, sorted."""
    return sorted((f.fiber_type, json.dumps(f.location, default=cli._json_value),
                   list(f.orders), f.count) for f in census_fibers)


# the Fraction invariants of each input, in Fraction arithmetic apart from
# the job's integral point
FRACTION_ROUTE = {"rosenhain": lambda val: igusa_from_rosenhain(*val),
                  "siegel": igusa_from_siegel, "sextic": igusa_from_sextic,
                  "igusa": lambda val: val}


def _fraction_model(key, val, model):
    """The model on the reduced Fraction invariants, in t, with the Satake
    roots x_i of Rosenhain input: the route of the point's parent."""
    if key == "siegel" and model == "alternate-ftheory":
        return alternate_model_ftheory(val)
    if model == "kummer1":
        return kummer_quartic_model(*val).jacobian_model()
    inv = FRACTION_ROUTE[key](val)
    sextic = satake_in_x(val) if key == "rosenhain" else None
    p = FibrationParams.from_igusa(inv)
    return {"kummer23": lambda: kumfib2_model(inv, sextic),
            "alternate": lambda: alternate_model(p, sextic),
            "alternate-ftheory": lambda: alternate_model_ftheory(
                siegel_from_igusa(inv), sextic),
            "standard": lambda: standard_model(p)}[model]()


CURVES = {
    **{name: ("rosenhain", lams) for name, lams in ROSENHAIN.items()},
    "igusa-I2=0": ("igusa", IgusaInvariants(0, F(7, 3), F(-5, 2), F(11, 13))),
    "siegel": ("siegel", SiegelForms(3, 5, 7, 11)),
    "siegel-chi10=0": ("siegel", SiegelForms(F(3, 2), F(-5, 7), 0, F(11, 4))),
}


@pytest.mark.parametrize("name,model", [
    (name, model) for name in sorted(CURVES) for model in MODELS
    if model != "kummer1" or CURVES[name][0] == "rosenhain"])
def test_the_census_of_the_point_is_that_of_the_fractions(name, model):
    key, val = CURVES[name]
    code, env = _run(["fibration", "--model", model,
                      f"--{key}=" + ",".join(map(str, val))])
    if name == "repeated" or (name == "siegel-chi10=0"
                              and model != "alternate-ftheory"):
        assert code == cli.EXIT_DOMAIN   # no K3 surface, or no invariants
        return
    assert code == cli.EXIT_OK, env
    printed = sorted((f["type"], json.dumps(f["location"]), f["orders"],
                      f["count"]) for f in env["result"]["fibers"])
    census = classify_fibers(_fraction_model(key, val, model))
    assert printed == _fibers(census.fibers)
    assert env["result"]["euler_sum"] == 24


def _spy_on(monkeypatch, names, source=qpoly):
    """Count the calls of the functions ``names`` of ``source`` through
    every binding in the package."""
    calls = Counter()
    for name in names:
        original = getattr(source, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (qpoly, theta, igusa, satake, fibrations, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("argv", (["predicates"], ["satake-sextic"],
                                  ["fibration", "--model", "alternate"]),
                         ids=" ".join)
def test_a_job_builds_its_point_once(argv, monkeypatch):
    calls = _spy_on(monkeypatch, ("integral_representative", "_coprime_base"))
    lams = ",".join(map(str, ROSENHAIN["h30-0"]))
    code, env = _run(argv + [f"--rosenhain={lams}"])
    # the printed values of predicates and satake-sextic may pass Python's
    # int-to-str limit at 30 digits, once every value has been computed
    assert code == cli.EXIT_OK or "cannot be printed" in env["error"], env
    # one coprime base, the point's reduction; no representative is rebuilt
    # from Fractions on the way
    assert calls == {"_coprime_base": 1}


H10 = ",".join(map(str, ROSENHAIN["h10-0"]))


@pytest.mark.parametrize("argv", (["predicates"], ["satake-sextic"],
                                  ["fibration", "--model", "alternate"]),
                         ids=" ".join)
def test_a_rosenhain_job_evaluates_its_thomae_products_once(argv, monkeypatch):
    # for the Igusa point and the closed-form Satake roots both
    calls = _spy_on(monkeypatch, ("thomae_products",), theta)
    code, env = _run(argv + [f"--rosenhain={H10}"])
    assert code == cli.EXIT_OK, env
    assert calls == {"thomae_products": 1}


@pytest.mark.parametrize("command", ("predicates", "satake-sextic"))
@pytest.mark.parametrize("source", (
    f"--rosenhain={H10}", "--rosenhain=2,3,5", "--rosenhain=2,3,3",
    "--siegel=3,5,7,11", "--siegel=3/2,-5/7,0,11/4",
    "--igusa=550,8272,1399200,2073600", "--sextic=1,0,0,0,0,0,1"))
def test_a_job_builds_its_satake_sextic_and_its_discriminant_once(
        command, source, monkeypatch):
    """F once, and disc(F) once, from the roots or by the subresultant; the
    input sextic's own discriminant (its I10) is not the Satake sextic's."""
    input_discriminant = igusa.discriminant
    built = _spy_on(monkeypatch, ("satake_sextic_from_siegel",), satake)
    disc = _spy_on(monkeypatch, ("root_differences", "discriminant"))
    monkeypatch.setattr(igusa, "discriminant", input_discriminant)
    code, env = _run([command, source])
    assert code == cli.EXIT_OK, env
    assert built == {"satake_sextic_from_siegel": 1}
    assert sum(disc.values()) == 1
    assert disc["root_differences"] == source.startswith("--rosenhain")


@pytest.mark.parametrize("name", ("h2-0", "h30-0", "h60-0"))
def test_the_point_carries_ints(name):
    lams = ROSENHAIN[name]
    point = cli.CurvePoint("rosenhain", lams)
    assert all(type(v) is int for v in point.params())
    assert all(type(v) is int for v in point.siegel)
    # the one constructor: exact division on ints, Fraction division on
    # Fraction invariants, and never a float
    on_point = FibrationParams.from_igusa(point.igusa.scaled(12))
    assert on_point == point.params()
    inv = igusa_from_rosenhain(*lams)
    p = FibrationParams.from_igusa(inv)
    assert [type(v) for v in p] == [F, F, int, F, F]
    assert all(F(n, point.siegel.v**w) == x for n, w, x in
               zip(on_point, (4, 6, 0, 2, 10), p))


@pytest.mark.parametrize("model", ("kummer23", "alternate", "alternate-ftheory"))
def test_a_rosenhain_fibration_never_builds_the_satake_sextic(model, monkeypatch):
    """They read the closed-form roots alone; that predicates and
    satake-sextic build F once is checked by
    ``test_a_job_builds_its_satake_sextic_and_its_discriminant_once``."""
    calls = _spy_on(monkeypatch, ("satake_sextic_from_siegel",), satake)
    code, env = _run(["fibration", "--model", model, f"--rosenhain={H10}"])
    assert code == cli.EXIT_OK, env
    assert calls["satake_sextic_from_siegel"] == 0


PHI_CURVES = {
    **{name: CURVES[name] for name in ("h2-0", "h10-0", "shared-0", "siegel")},
    "igusa-negative-I2": ("igusa", IgusaInvariants(-3, 0, 0, 5)),
    "sextic-degree-5": ("sextic", qpoly.Poly([3, -1, 0, 2, 1, 4])),
}


@pytest.mark.parametrize("name", sorted(PHI_CURVES))
def test_the_moduli_map_on_the_point_is_that_of_j(name):
    """The job's point and its Satake sextic give the moduli map of j, whose
    own point phi_map builds at I2 = 1."""
    key, val = PHI_CURVES[name]
    point = cli.CurvePoint(key, val)
    j = absolute_invariants(FRACTION_ROUTE[key](val))
    assert point.igusa.absolute() == j
    assert satake.phi_map(j, point.igusa, point.satake) == satake.phi_map(j)


# phi at 10 digits prints values past Python's int-to-str limit
@pytest.mark.parametrize("source", ("--rosenhain=123/457,-389/211,702/913",
                                    "--siegel=3,5,7,11"))
def test_a_phi_job_runs_the_direct_route_on_its_satake_sextic(source, monkeypatch):
    """F once, disc(F) once, from the closed-form roots on Rosenhain input;
    no power-sum sextic and no Fraction invariants of a sextic."""
    built = _spy_on(monkeypatch, ("satake_sextic_from_siegel", "satake_sextic"),
                    satake)
    fraction_route = _spy_on(monkeypatch, ("igusa_from_sextic",), igusa)
    disc = _spy_on(monkeypatch, ("root_differences", "discriminant"))
    code, env = _run(["phi", source])
    assert code == cli.EXIT_OK, env
    assert built == {"satake_sextic_from_siegel": 1}
    assert not fraction_route
    assert sum(disc.values()) == 1
    assert disc["root_differences"] == source.startswith("--rosenhain")


def _logged(monkeypatch, name, modules):
    """Log the arguments and result of each call of the function ``name``
    through its bindings in ``modules``."""
    log, original = [], getattr(modules[0], name)

    def spy(*args):
        log.append((args, original(*args)))
        return log[-1][1]

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return log


@pytest.mark.parametrize("argv", [
    ["igusa", f"--{key}=" + ",".join(map(str, getattr(val, "coeffs", val)))]
    for key, val in (PHI_CURVES[name] for name in sorted(PHI_CURVES))]
    + [["roundtrip", f"--rosenhain={lams}"]
       for lams in (H10, ",".join(map(str, ROSENHAIN["shared-0"])))],
    ids=" ".join)
def test_igusa_and_roundtrip_jobs_read_the_point(argv, monkeypatch):
    """No Siegel forms of Fraction invariants, no power sums of them and no
    power-sum sextic beside the point; the Fraction route of the lambdas
    runs only on those that the round trip rebuilds."""
    beside = _spy_on(monkeypatch, ("siegel_from_igusa",), igusa)
    beside.update(_spy_on(monkeypatch, ("power_sums_from_igusa", "satake_sextic"),
                          satake))
    invariants = _logged(monkeypatch, "igusa_from_rosenhain", (igusa, cli))
    rebuilt = _logged(monkeypatch, "reconstruct_from_satake_roots", (satake, cli))
    code, env = _run(argv)
    assert code == cli.EXIT_OK, env
    assert not beside
    assert len(rebuilt) == (argv[0] == "roundtrip")
    assert [args for args, _ in invariants] == [lams for _, (lams, _) in rebuilt]


@pytest.mark.parametrize("name", ("h2-0", "h30-0"))
def test_point_built_models_keep_ints(name):
    """kummer1's I and J on integer branch points, and the F-theory model's
    A on the Siegel point, where 48 divides psi4 and 864 divides psi6."""
    lams = ROSENHAIN[name]
    point = cli.CurvePoint("rosenhain", lams)
    z, ints = igusa.rosenhain_integers(lams)
    i, j = kummer_quartic_model(*ints, z=z).quartic_invariants()
    A = alternate_model_ftheory(point.siegel).A
    assert all(type(c) is int for p in (i, j, A) for c in p.coeffs)
