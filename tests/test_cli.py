import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from g2satake import cli, fibrations, satake
from g2satake.cli import run
from g2satake.fibrations import FibrationParams
from g2satake.igusa import IgusaPoint, SiegelPoint


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_igusa_rosenhain(capsys):
    code, doc = invoke(capsys, "igusa", "--rosenhain", "2,3,5")
    assert code == 0
    inv = doc["result"]["invariants"]
    assert inv["I2"] == "550"
    assert inv["I10"] == "2073600"
    assert doc["result"]["degenerate"] is False


def test_igusa_degenerate_flag(capsys):
    code, doc = invoke(capsys, "igusa", "--rosenhain", "2,3,3")
    assert code == 0
    assert doc["result"]["degenerate"] is True
    assert doc["result"]["absolute"] is None


def test_fibration_alternate_contains_i10star(capsys):
    code, doc = invoke(capsys, "fibration", "--model", "alternate",
                       "--rosenhain", "2,3,5")
    assert code == 0
    types = {f["type"] for f in doc["result"]["fibers"]}
    assert "I10*" in types
    assert doc["result"]["euler_sum"] == 24


def test_fibration_all_models(capsys):
    for model in ("kummer1", "kummer23", "alternate", "alternate-ftheory",
                  "standard"):
        code, doc = invoke(capsys, "fibration", "--model", model,
                           "--rosenhain", "2,3,5")
        assert code == 0, model
        assert doc["result"]["euler_sum"] == 24


def test_roundtrip_ok(capsys):
    code, doc = invoke(capsys, "roundtrip", "--rosenhain", "2,3,5",
                       "--tol", "1e-8")
    assert code == 0
    assert doc["result"]["status"] == "ok"
    assert doc["result"]["max_rel_err"] < 1e-8


def test_satake_sextic_identity_fields(capsys):
    code, doc = invoke(capsys, "satake-sextic", "--rosenhain", "2,3,5")
    assert code == 0
    res = doc["result"]
    assert res["discriminant_identity"] is True
    assert res["coefficients"][-1] == "1"
    assert res["power_sums"]["s1"] == "0"


def test_phi_command(capsys):
    code, doc = invoke(capsys, "phi", "--rosenhain", "2,3,5")
    assert code == 0
    assert set(doc["result"]["j_image"]) == {"j1", "j2", "j3"}
    assert "N_squared" in doc["result"]["diagnostics"]


def test_theta_command(capsys):
    code, doc = invoke(capsys, "theta", "--tau",
                       "0.44,1.86,-0.26,0.81,-0.1,1.93")
    assert code == 0
    res = doc["result"]
    assert len(res["theta_constants"]) == 10
    assert res["max_frobenius_residual"] < 1e-10
    assert res["power_sum_residual"] < 1e-7
    assert res["precise"] is True


def test_predicates_command(capsys):
    code, doc = invoke(capsys, "predicates", "--rosenhain=-1,2,-2")
    assert code == 0
    assert doc["result"]["humbert"]["on_H4"] is True
    assert doc["result"]["humbert"]["on_H1"] is False
    assert doc["result"]["degeneration"]["su2_enhancement"] is True


def test_exit_code_schema_error(capsys):
    code, doc = invoke(capsys, "igusa", "--rosenhain", "1,2")
    assert code == 1
    assert doc["status"] == "schema-error"


def test_exit_code_domain_error(capsys):
    code, doc = invoke(capsys, "phi", "--rosenhain=-1,2,-2")
    assert code == 2
    assert doc["status"] == "domain-error"


def test_exit_code_identity_violation(capsys):
    code, doc = invoke(capsys, "satake-sextic", "--power-sums", "0,1,0,99,0,0")
    assert code == 3
    assert doc["status"] == "identity-violation"


@pytest.mark.parametrize("flag", ["--rosenhain=2,3,5", "--siegel=3,5,7,11"])
def test_a_failed_discriminant_identity_is_exit_3(capsys, monkeypatch, flag):
    from g2satake import igusa

    q_poly = igusa._q_poly
    monkeypatch.setattr(igusa, "_q_poly", lambda *v: q_poly(*v) + 1)
    code, doc = invoke(capsys, "satake-sextic", flag)
    assert code == 3
    assert doc["status"] == "identity-violation"


def _off_by(monkeypatch, owner, name, change):
    """Patch ``owner.name`` to return ``change`` of what it returned."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: change(original(*a, **k)))


H2_AND_H30 = [
    "2,3,5",
    # 30 digits: j_image has about 10,700 digits, and the values predicates
    # prints pass it too, past int-to-str's limit
    "950902429462863423267844418538/412424907062292339370358934491,"
    "-505109913325698786106015836731/594904487478826583684050905250,"
    "-972548800835053393263893270341/280599199777734174142979873442"]


@pytest.mark.parametrize("lams", H2_AND_H30, ids=("h2", "h30"))
def test_a_failed_moduli_map_identity_is_exit_3(capsys, monkeypatch, lams):
    # j1' of the explicit components off by one: the direct route disagrees
    _off_by(monkeypatch, satake, "_phi_components",
            lambda j: j._replace(j1=j.j1 + 1))
    code, doc = invoke(capsys, "phi", f"--rosenhain={lams}")
    assert code == 3
    assert doc["status"] == "identity-violation"


# check of phi_map -> (patch of the one value it reads first, error message)
PHI_INJECTED = {
    "direct-route": (lambda mp: _off_by(mp, satake, "_phi_components",
                                        lambda j: j._replace(j3=j.j3 + 1)),
                     "disagree with the direct invariant route"),
    # Q of the source: its first reader is chi10(tau') = -2^38 3^21 Q
    "chi10": (lambda mp: _off_by(mp, SiegelPoint, "q", lambda q: q + 1),
              "chi10(tau') scaling fails"),
    # I2 of the image: chi10' holds, chi12' = 2^40 3^23 Q M does not
    "chi12": (lambda mp: _off_by(mp, satake, "even_invariants",
                                 lambda v: (v[0] + 1, *v[1:])),
              "chi12(tau') = 2^40 3^23 Q M fails"),
    "m": (lambda mp: _off_by(mp, satake, "_phi_m", lambda v: v + 1),
          "m-polynomial"),
    "k": (lambda mp: _off_by(mp, satake, "_phi_k", lambda v: v + 1),
          "k-polynomial"),
    "w": (lambda mp: _off_by(mp, satake, "_phi_w", lambda v: v + 1),
          "g3 factor"),
    "q": (lambda mp: _off_by(mp, satake, "_phi_q", lambda v: v + 1),
          "q-polynomial"),
}


@pytest.mark.parametrize("source", [f"--rosenhain={lams}" for lams in H2_AND_H30]
                         + ["--absolute=1/2,-3,7"], ids=("h2", "h30", "absolute"))
@pytest.mark.parametrize("check", PHI_INJECTED)
def test_each_failed_moduli_map_check_is_exit_3(capsys, monkeypatch, check,
                                                source):
    """One patched value fails each check of ``phi_map`` on its own, with
    the message of that check."""
    patch, message = PHI_INJECTED[check]
    patch(monkeypatch)
    code, doc = invoke(capsys, "phi", source)
    assert code == 3
    assert doc["status"] == "identity-violation"
    assert message in doc["error"], doc["error"]


@pytest.mark.parametrize("lams", [
    "2,3,5", "4738291056/8829104735,-1920384756/6473829105,7364519028/2039485716"],
    ids=("h2", "h10"))
def test_a_failed_satake_sextic_check_in_a_round_trip_is_exit_3(capsys, monkeypatch,
                                                                lams):
    """The round trip compares the Siegel-form sextic of its point with the
    Bell and closed forms of the power sums over Z before it solves it."""
    _off_by(monkeypatch, satake, "satake_sextic_from_siegel", lambda f: f + 1)
    code, doc = invoke(capsys, "roundtrip", f"--rosenhain={lams}")
    assert code == 3
    assert doc["status"] == "identity-violation"
    assert "power-sum and Siegel-form constructions" in doc["error"], doc["error"]


def _first_known_factor_shifted(model):
    """``model`` with 1 added to the constant coefficient of its first known
    discriminant factor, so that the known factors no longer multiply to a
    constant times the discriminant (a constant factor would)."""
    (f, k), *rest = model.disc_factors
    return model._replace(disc_factors=((f + 1, k), *rest))


@pytest.mark.parametrize("lams", H2_AND_H30, ids=("h2", "h30"))
@pytest.mark.parametrize("model, build", [("kummer1", "kummer_quartic_model"),
                                          ("alternate", "alternate_model")])
def test_wrong_known_discriminant_factors_are_exit_3(capsys, monkeypatch, model,
                                                     build, lams):
    """kummer1 (C != 0) checks its known factors against the expanded
    discriminant, alternate (C = 0) against A^2 - 4B."""
    _off_by(monkeypatch, cli, build, _first_known_factor_shifted)
    code, doc = invoke(capsys, "fibration", "--model", model, f"--rosenhain={lams}")
    assert code == 3
    assert doc["status"] == "identity-violation"
    assert "known discriminant factors" in doc["error"], doc["error"]


def _params_off(monkeypatch):
    # I2' + 12 leaves d = I2'/24 a remainder of 12 on the point over v
    from_igusa = FibrationParams.from_igusa
    monkeypatch.setattr(FibrationParams, "from_igusa", classmethod(
        lambda cls, inv: from_igusa(inv._replace(I2=inv.I2 + 12))))


# check -> (patch of one value, commands that run the check, error message)
INJECTED = {
    "params-remainder": (_params_off, ("predicates", "alternate"),
                         "d is not an integer"),
    "siegel-remainder": (
        # I4' + 1 leaves psi4 = I4'/4 a remainder
        lambda mp: _off_by(mp, IgusaPoint, "scaled",
                           lambda v: v._replace(I4=v.I4 + 1)),
        ("predicates", "alternate"), "psi4 is not an integer"),
    "bracket": (lambda mp: _off_by(mp, fibrations, "_qvanish_form",
                                   lambda b: b + 1),
                ("predicates",), "2^12 e^3 * bracket"),
    "radicand": (lambda mp: _off_by(mp, fibrations, "radicand", lambda r: r + 1),
                 ("predicates",), "729 radicand"),
    "type-III": (lambda mp: _off_by(mp, fibrations, "type_iii_bracket",
                                    lambda b: b + 1),
                 ("predicates",), "type-III"),
}


@pytest.mark.parametrize("lams", H2_AND_H30, ids=("h2", "h30"))
@pytest.mark.parametrize("check,command", [
    (check, command) for check, (_, commands, _) in INJECTED.items()
    for command in commands])
def test_a_failed_check_on_the_integral_point_is_exit_3(capsys, monkeypatch,
                                                        check, command, lams):
    """Each check of the point's ints fails on one patched value; the
    alternate fibration runs only the remainder checks of the point."""
    patch, _, message = INJECTED[check]
    patch(monkeypatch)
    argv = (["predicates"] if command == "predicates"
            else ["fibration", "--model", "alternate"])
    code, doc = invoke(capsys, *argv, f"--rosenhain={lams}")
    assert code == 3
    assert doc["status"] == "identity-violation"
    assert message in doc["error"], doc["error"]


def test_deterministic_output(capsys):
    code1 = run(["igusa", "--rosenhain", "2,3,5"])
    out1 = capsys.readouterr().out
    code2 = run(["igusa", "--rosenhain", "2,3,5"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = run(["igusa", "--rosenhain", "2,3,5", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["invariants"]["I2"] == "550"


# a file in a missing directory, and a directory in place of a file
@pytest.mark.parametrize("name", ("missing/x.json", "."), ids=("missing-dir", "is-a-dir"))
@pytest.mark.parametrize("form", ("argv", "run"))
def test_unwritable_out_is_a_schema_error(name, form, tmp_path, monkeypatch,
                                          capsys):
    out = tmp_path / name
    if form == "argv":
        argv = ["igusa", "--rosenhain=2,3,5", f"--out={out}"]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"command": "igusa", "input": {"rosenhain": [2, 3, 5]}})))
        argv = ["run", "-", f"--out={out}"]
    code, doc = invoke(capsys, *argv)
    assert code == 1
    assert doc["status"] == "schema-error"
    assert "--out" in doc["error"]


MALFORMED_DOCUMENTS = {
    "command-list": {"command": ["igusa"]},
    "input-string": {"command": "igusa", "input": "abc"},
    "input-null": {"command": "igusa", "input": None},
    "options-list": {"command": "igusa", "input": {"rosenhain": [2, 3, 5]},
                     "options": [1]},
    # a misspelt field is not ignored, and no flag is given twice
    "unknown-field": {"command": "roundtrip", "input": {"rosenhain": [2, 3, 5]},
                      "option": {"tol": 1e-30}},
    "input-and-options": {"command": "roundtrip",
                          "input": {"rosenhain": [2, 3, 5], "tol": 1e-3},
                          "options": {"tol": 1e-30}},
    "spellings-of-one-flag": {"command": "satake-sextic",
                              "input": {"power_sums": [0, 4, 1, 4, 2, 3],
                                        "power-sums": [0, 4, 1, 4, 2, 3]}},
}


@pytest.mark.parametrize("source", ("stdin", "file"))
@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_job_document_is_a_schema_error(name, source, tmp_path,
                                                  monkeypatch, capsys):
    text = json.dumps(MALFORMED_DOCUMENTS[name])
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "job.json"
        path.write_text(text)
    code, doc = invoke(capsys, "run", str(path))
    assert code == 1
    assert doc["status"] == "schema-error"


# (the flag given twice, argv); a default (--tol) does not count as given
REPEATED_FLAGS = [
    ("--rosenhain", ["igusa", "--rosenhain=1/2,3,5", "--rosenhain=2,3,5"]),
    ("--tol", ["roundtrip", "--rosenhain=2,3,5", "--tol=1e-3", "--tol=1e-9"]),
    ("--tol", ["roundtrip", "--rosenhain=2,3,5", "--tol=1e-3", "--tol", "1e-3"]),
    ("--theta-radius", ["theta", "--tau=0.44,1.86,-0.26,0.81,-0.1,1.93",
                        "--theta-radius=3", "--theta-radius", "4"]),
    ("--model", ["fibration", "--model", "alternate", "--model=kummer23",
                 "--rosenhain=2,3,5"]),
]


@pytest.mark.parametrize("flag, argv", REPEATED_FLAGS,
                         ids=[" ".join(argv) for _, argv in REPEATED_FLAGS])
def test_repeated_flag_is_a_schema_error(flag, argv, capsys):
    code, doc = invoke(capsys, *argv)
    assert code == 1
    assert doc["status"] == "schema-error"
    assert doc["error"] == f"command line gives {flag} more than once"


def test_document_out_and_pretty_win_over_the_runs(tmp_path, monkeypatch,
                                                    capsys):
    run_out, doc_out = tmp_path / "run.json", tmp_path / "doc.json"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"command": "igusa", "input": {"rosenhain": [2, 3, 5]},
         "options": {"out": str(doc_out), "pretty": True}})))
    assert run(["run", "-", f"--out={run_out}", "--pretty"]) == 0
    assert capsys.readouterr().out == ""
    assert not run_out.exists()
    assert doc_out.read_text().startswith("{\n")


def test_closed_stdout_exits_quietly():
    # the reader of the pipe is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "g2satake.cli", "igusa", "--rosenhain=2,3,5",
             "--pretty"], stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 0


@pytest.mark.parametrize("pretty", (True, False))
def test_job_document_sets_a_boolean_flag(pretty, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"command": "igusa", "input": {"rosenhain": [2, 3, 5]},
         "options": {"pretty": pretty}})))
    assert run(["run", "-"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["invariants"]["I2"] == "550"
    assert out.startswith("{\n") == pretty


def test_run_job_document(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "fibration",
        "input": {"rosenhain": [2, 3, 5]},
        "options": {"model": "standard"},
    }))
    code, doc = invoke(capsys, "run", str(job))
    assert code == 0
    types = {f["type"] for f in doc["result"]["fibers"]}
    assert {"II*", "III*"} <= types


def test_run_job_document_bad_json(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text("{not json")
    code, doc = invoke(capsys, "run", str(job))
    assert code == 1


def test_run_job_unknown_command(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "explode"}))
    code, doc = invoke(capsys, "run", str(job))
    assert code == 1


def test_console_script_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "g2satake.cli", "igusa", "--rosenhain", "2,3,5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["invariants"]["I2"] == "550"


def test_standard_fibration_on_i10_zero_is_a_domain_error(capsys):
    code, doc = invoke(capsys, "fibration", "--model", "standard",
                       "--rosenhain", "2,3,3")
    assert code == 2
    assert doc["status"] == "domain-error"
    # the F-theory normalization stays defined on chi10 = 0
    code, doc = invoke(capsys, "fibration", "--model", "alternate-ftheory",
                       "--siegel", "3,5,0,7")
    assert code == 0
    assert doc["result"]["euler_sum"] == 24


def test_satake_sextic_from_siegel_on_product_locus(capsys):
    code, doc = invoke(capsys, "satake-sextic", "--siegel", "38/69,-21/82,0,-39/56")
    assert code == 0
    res = doc["result"]
    assert res["discriminant_identity"] is True
    assert res["power_sums"]["s2"] == str(12 * Fraction(38, 69))
    assert res["power_sums"]["s5"] == str(60 * Fraction(38, 69) * Fraction(-21, 82))


def test_satake_sextic_siegel_input_matches_curve_input(capsys):
    code, by_curve = invoke(capsys, "satake-sextic", "--rosenhain", "2,3,5")
    s = by_curve["result"]
    code, doc = invoke(capsys, "igusa", "--rosenhain", "2,3,5")
    forms = doc["result"]["siegel"]
    siegel = ",".join(forms[k] for k in ("psi4", "psi6", "chi10", "chi12"))
    code, by_forms = invoke(capsys, "satake-sextic", f"--siegel={siegel}")
    assert code == 0
    assert by_forms["result"] == s


def test_run_job_document_with_negative_rationals(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "predicates",
                               "input": {"rosenhain": ["-1", 2, -2]}}))
    code, doc = invoke(capsys, "run", str(job))
    assert code == 0
    assert doc["result"]["humbert"]["on_H4"] is True


def _argv(command, flags, form, tmp_path):
    """The argv of one command, given as flags or as a ``run`` document."""
    if form == "argv":
        return [command] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": command, "input": flags}))
    return ["run", str(job)]


TAU = "0.44,1.86,-0.26,0.81,-0.1,1.93"

# the last flag of each case holds the bad value
NON_FINITE_INPUTS = (
    ("theta", {"tau": "0,inf,0,0,0,inf"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "nan"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "-1"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "inf"}),
    ("theta", {"tau": TAU, "theta-radius": "0"}),
    ("theta", {"tau": TAU, "theta-radius": "101"}),
    ("theta", {"tau": TAU, "theta-radius": "2.5"}),
)


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("command,flags", NON_FINITE_INPUTS,
                         ids=["tau-inf", "tol-nan", "tol-negative", "tol-inf",
                              "theta-radius-0", "theta-radius-101",
                              "theta-radius-fraction"])
def test_non_finite_numeric_input_is_a_schema_error(command, flags, form,
                                                    tmp_path, capsys):
    code, doc = invoke(capsys, *_argv(command, flags, form, tmp_path))
    assert code == 1
    assert doc["status"] == "schema-error"
    assert f"--{list(flags)[-1]}" in doc["error"]


# Im tau whose entries square past the double range: two not positive
# definite, whose envelope is that of any such tau, and one that is
HUGE_TAU = {"not-pd": "0,1,0,1e200,0,1",
            "not-pd-mixed": "0,1e200,0,1e200,0,1e-200",
            "pd": "0,1e200,0,5e199,0,1e200"}


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("name", sorted(HUGE_TAU))
def test_a_huge_imaginary_part_ends_in_one_envelope(name, form, tmp_path, capsys):
    code, doc = invoke(capsys, *_argv("theta", {"tau": HUGE_TAU[name]}, form,
                                      tmp_path))
    if name == "pd":
        assert code == 0 and doc["status"] == "ok"
        return
    assert code == 2
    assert doc == invoke(capsys, "theta", "--tau=0,1,0,2,0,1")[1]
    assert doc["error"] == ("imaginary part of the period matrix is not "
                            "positive definite")


CURVE_FLAGS = {"rosenhain": "2,3,5", "igusa": "550,12,-7,2073600",
               "siegel": "3,5,7,11", "sextic": "0,30,-61,41,-11,1"}
CURVE_PAIRS = list(itertools.combinations(CURVE_FLAGS, 2))

# a valid input of each command, and a value of every flag
BASE_FLAGS = {"igusa": {"rosenhain": "2,3,5"}, "satake-sextic": {"rosenhain": "2,3,5"},
              "phi": {"rosenhain": "2,3,5"}, "predicates": {"rosenhain": "2,3,5"},
              "fibration": {"model": "standard", "rosenhain": "2,3,5"},
              "roundtrip": {"rosenhain": "2,3,5"}, "theta": {"tau": TAU}}
FLAG_VALUES = {**CURVE_FLAGS, "power_sums": "0,4,1,4,2,3", "absolute": "1/2,-3,7",
               "tau": TAU, "model": "standard", "tol": "1e-3", "theta_radius": "3"}


def _flags_of(command):
    _, inputs, options = cli.COMMANDS[command]
    return set(inputs) | set(options)


# every flag of every other command, from the command table
UNREAD_FLAGS = {
    f"{command}-{flag.replace('_', '-')}":
        (command, {**BASE_FLAGS[command], flag: FLAG_VALUES[flag]})
    for command in cli.COMMANDS
    for flag in sorted(set().union(*map(_flags_of, cli.COMMANDS)) - _flags_of(command))
}
# a prefix of a flag the command reads is not that flag
UNREAD_FLAGS.update({
    "igusa-prefix-ros": ("igusa", {"ros": "2,3,5"}),
    "theta-prefix-theta": ("theta", {"tau": TAU, "theta": "3"}),
    "igusa-prefix-r": ("igusa", {"r": "2,3,5"}),
})


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("command,flags", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS)
def test_flag_the_command_does_not_read_is_a_schema_error(command, flags, form,
                                                          tmp_path, capsys):
    code, doc = invoke(capsys, *_argv(command, flags, form, tmp_path))
    assert code == 1
    assert doc["status"] == "schema-error"
    assert "unrecognized arguments" in doc["error"]


# the flags each command takes, written out apart from the command table
TAKES = {"igusa": {"rosenhain", "igusa", "siegel", "sextic"},
         "predicates": {"rosenhain", "igusa", "siegel", "sextic"},
         "satake-sextic": {"rosenhain", "igusa", "siegel", "sextic", "power-sums"},
         "phi": {"rosenhain", "igusa", "siegel", "sextic", "absolute"},
         "fibration": {"rosenhain", "igusa", "siegel", "sextic", "model"},
         "roundtrip": {"rosenhain", "tol"},
         "theta": {"tau", "theta-radius"},
         "run": set()}


def test_each_command_takes_the_flags_it_took():
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    took = {name: {s[2:] for a in p._actions for s in a.option_strings
                   if s.startswith("--")} - {"help", "out", "pretty"}
            for name, p in sub.choices.items()}
    assert took == TAKES


# an empty value is a given flag, and a non-curve input is one input too;
# the error names every input flag once a non-curve one is given
CURVES = "--rosenhain/--igusa/--siegel/--sextic"
TWO_INPUTS = {
    "igusa-empty-rosenhain": ("igusa", {"rosenhain": "", "igusa": "550,12,-7,2073600"},
                              CURVES),
    "satake-sextic-empty-power-sums": ("satake-sextic",
                                       {"power_sums": "", "rosenhain": "2,3,5"},
                                       CURVES + "/--power-sums"),
    "satake-sextic-power-sums": ("satake-sextic", {"power_sums": "0,4,1,4,2,3",
                                                   "rosenhain": "2,3,5"},
                                 CURVES + "/--power-sums"),
    "phi-absolute": ("phi", {"absolute": "1/2,-3,7", "rosenhain": "2,3,5"},
                     CURVES + "/--absolute"),
}


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("command,flags,names", TWO_INPUTS.values(), ids=TWO_INPUTS)
def test_two_inputs_are_a_schema_error(command, flags, names, form, tmp_path, capsys):
    code, doc = invoke(capsys, *_argv(command, flags, form, tmp_path))
    assert code == 1
    assert doc == {"status": "schema-error",
                   "error": f"exactly one of {names} is required"}


# lambda = 0, lambda = 1 and a repeated lambda: I10 = 0, so no K3 fibration
@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("rosenhain", ("0,1/2,5/7", "2/3,1,5/7", "2,3,3"))
def test_kummer1_on_i10_zero_is_the_i10_domain_error(rosenhain, form,
                                                     tmp_path, capsys):
    flags = {"model": "kummer1", "rosenhain": rosenhain}
    code, doc = invoke(capsys, *_argv("fibration", flags, form, tmp_path))
    assert code == 2
    assert doc["error_type"] == "DomainError"
    assert doc["error"].startswith("I10 = 0: the sextic is singular")


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("flags", ({"rosenhain": "2,3,3"}, {"igusa": "1,2,3,0"}),
                         ids=("rosenhain", "igusa"))
def test_ftheory_model_on_i10_zero_curve_is_the_i10_domain_error(flags, form,
                                                                 tmp_path, capsys):
    flags = {"model": "alternate-ftheory", **flags}
    code, doc = invoke(capsys, *_argv("fibration", flags, form, tmp_path))
    assert code == 2
    assert doc["error_type"] == "DomainError"
    assert doc["error"].startswith("I10 = 0: the sextic is singular")


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("pair", CURVE_PAIRS, ids="-".join)
@pytest.mark.parametrize("command,options",
                         (("igusa", {}), ("predicates", {}), ("satake-sextic", {}),
                          ("fibration", {"model": "alternate-ftheory"})),
                         ids=("igusa", "predicates", "satake-sextic",
                              "alternate-ftheory"))
def test_two_curve_flags_are_a_schema_error(command, options, pair, form,
                                            tmp_path, capsys):
    flags = {**options, **{k: CURVE_FLAGS[k] for k in pair}}
    code, doc = invoke(capsys, *_argv(command, flags, form, tmp_path))
    assert code == 1
    assert doc == {"status": "schema-error", "error": "exactly one of "
                   "--rosenhain/--igusa/--siegel/--sextic is required"}


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("other", ("igusa", "siegel", "sextic"))
def test_kummer1_takes_no_second_curve_flag(other, form, tmp_path, capsys):
    flags = {"model": "kummer1", "rosenhain": "2,3,5", other: CURVE_FLAGS[other]}
    code, doc = invoke(capsys, *_argv("fibration", flags, form, tmp_path))
    assert code == 1
    assert doc["status"] == "schema-error"


H10 = "4738291056/8829104735,-1920384756/6473829105,7364519028/2039485716"


@pytest.mark.parametrize("form", ("argv", "run"))
def test_oversized_exact_value_is_a_domain_error(form, tmp_path, capsys):
    # phi at 10-digit lambdas has values past Python's int-to-str limit
    code, doc = invoke(capsys, *_argv("phi", {"rosenhain": H10}, form, tmp_path))
    assert code == 2
    assert doc["status"] == "domain-error"
    assert doc["error_type"] == "DomainError"


def test_run_missing_job_document_is_a_schema_error(tmp_path, capsys):
    code, doc = invoke(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 1
    assert doc["status"] == "schema-error"


EXACT_COMMANDS = (
    ["igusa", "--rosenhain=2,3,5"],
    ["predicates", "--rosenhain=-1,2,-2"],
    ["predicates", "--siegel=3,5,0,7"],
    ["satake-sextic", "--rosenhain=2,3,5"],
    ["satake-sextic", "--siegel=3,5,0,7"],
    ["phi", "--rosenhain=2,3,5"],
) + tuple(["fibration", "--model", m, "--rosenhain=1/3,-7/2,12/5"]
          for m in ("kummer1", "kummer23", "alternate", "alternate-ftheory",
                    "standard"))


# every command, in argv form and as a run document, ok and error exits
NUMPY_FREE_JOBS = tuple((argv, 0) for argv in EXACT_COMMANDS) + (
    (["theta", f"--tau={TAU}"], 0),
    (["theta", "--tau=0.3,0.021,-0.1,0.003,0.2,0.7", "--theta-radius=5"], 0),
    (["roundtrip", "--rosenhain=2,3,5"], 0),
    (["roundtrip", "--rosenhain=-7/9,-3/4,28/27"], 0),   # a double Satake root
    (["roundtrip", f"--rosenhain=1/{10**30},2,3"], 2),   # roots beyond doubles
    (["satake-sextic", "--power-sums=0,1,0,99,0,0"], 3),
)
NUMPY_FREE_DOCUMENTS = (
    {"command": "igusa", "input": {"rosenhain": [2, 3, 5]}},
    {"command": "predicates", "input": {"siegel": [3, 5, 0, 7]}},
    {"command": "satake-sextic", "input": {"rosenhain": ["-7/2", "1/3", 5]}},
    {"command": "phi", "input": {"rosenhain": [2, 3, 5]}},
    {"command": "fibration", "input": {"rosenhain": [-3, "2/5", 7]},
     "options": {"model": "standard"}},
    {"command": "theta", "input": {"tau": [0.3, 1.1, 0.2, 0.4, -0.4, 1.7]}},
    {"command": "roundtrip", "input": {"rosenhain": [2, 3, 5]},
     "options": {"tol": 1e-10}},
)


def test_no_command_imports_numpy(tmp_path):
    jobs = list(NUMPY_FREE_JOBS)
    for k, doc in enumerate(NUMPY_FREE_DOCUMENTS):
        path = tmp_path / f"job{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append((["run", str(path)], 0))
    commands = {argv[0] for argv, _ in NUMPY_FREE_JOBS}
    assert commands == set(cli.COMMANDS)
    assert {doc["command"] for doc in NUMPY_FREE_DOCUMENTS} == commands
    # a None entry makes every import of numpy raise; dataclasses would pull
    # in inspect, ast and dis: a quarter of a cold start
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from g2satake.cli import run\n"
        "for argv, code in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert run(argv) == code, (argv, out.getvalue())\n"
        "    assert 'dataclasses' not in sys.modules, f'{argv} imported dataclasses'\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(jobs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_roundtrip_on_q0_recovers_the_double_root(capsys):
    # Q = 0: the Satake sextic has a rational double root
    start = time.perf_counter()
    code, doc = invoke(capsys, "roundtrip", "--rosenhain=-7/9,-3/4,28/27")
    assert time.perf_counter() - start < 1.5
    assert code == 0
    assert doc["result"]["max_rel_err"] == 0.0



@pytest.mark.parametrize("argv", [
    ["satake-sextic"], ["predicates"],
    *(["fibration", "--model", m] for m in ("alternate", "alternate-ftheory", "kummer23")),
    # no closed-form roots: the fibrations take the Satake sextic itself
    ["fibration", "--model", "alternate", "--igusa=550,8272,1399200,2073600"],
    ["fibration", "--model", "kummer23", "--siegel=3,5,7,11"],
    ["fibration", "--model", "alternate-ftheory", "--sextic=0,-1,0,0,0,1"],
    ["fibration", "--model", "alternate-ftheory", "--siegel=3/2,-5/7,0,11/4"],
    # Q read off disc(f) = 2^52 3^21 Q, chi10 = 0 included
    ["predicates", "--siegel=3,5,7,11"],
    ["predicates", "--siegel=3/2,-5/7,0,11/4"],
], ids=" ".join)
def test_a_wrong_closed_form_root_is_exit_3(capsys, monkeypatch, argv):
    """A wrong Satake root, or on other input a wrong Satake sextic (off by
    one), fails the identity that checks it."""
    if argv[-1].startswith("--"):
        sextic = satake.satake_sextic_from_siegel
        monkeypatch.setattr(satake, "satake_sextic_from_siegel",
                            lambda s: sextic(s) + 1)
    else:
        roots = cli.satake_roots_from_rosenhain

        def one_wrong(*args):
            d, xs = roots(*args)
            return d, [xs[0] + d] + xs[1:]

        monkeypatch.setattr(cli, "satake_roots_from_rosenhain", one_wrong)
        argv = [*argv, "--rosenhain=2,3,5"]
    code, doc = invoke(capsys, *argv)
    assert code == 3
    assert doc["status"] == "identity-violation"


def test_q0_discriminants_and_census_from_the_closed_form_roots(capsys):
    # the Satake sextic of -7/9, -3/4, 28/27 has a double root: disc = 0
    code, doc = invoke(capsys, "satake-sextic", "--rosenhain=-7/9,-3/4,28/27")
    assert code == 0
    assert doc["result"]["discriminant"] == "0"
    assert doc["result"]["discriminant_identity"] is True
    code, doc = invoke(capsys, "predicates", "--rosenhain=-7/9,-3/4,28/27")
    assert code == 0 and doc["result"]["identities_checked"] is True
    code, doc = invoke(capsys, "fibration", "--model", "kummer23",
                       "--rosenhain=-7/9,-3/4,28/27")
    assert code == 0 and doc["result"]["euler_sum"] == 24
    assert any(f["type"] == "I4" for f in doc["result"]["fibers"])
