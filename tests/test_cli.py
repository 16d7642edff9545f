import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from g2satake import cli
from g2satake.cli import run


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
        return [command] + [f"--{k}={v}" for k, v in flags.items()]
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


UNREAD_FLAGS = (
    ("theta", {"tau": TAU, "rosenhain": "1,2,3"}),
    ("roundtrip", {"rosenhain": "2,3,5", "igusa": "550,12,-7,2073600"}),
    ("igusa", {"rosenhain": "2,3,5", "tol": "1e-3"}),
    # a prefix of a flag the command reads is not that flag
    ("igusa", {"ros": "2,3,5"}),
    ("theta", {"tau": TAU, "theta": "3"}),
    ("igusa", {"r": "2,3,5"}),
)


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("command,flags", UNREAD_FLAGS,
                         ids=["theta-rosenhain", "roundtrip-igusa", "igusa-tol",
                              "igusa-prefix-ros", "theta-prefix-theta",
                              "igusa-prefix-r"])
def test_flag_the_command_does_not_read_is_a_schema_error(command, flags, form,
                                                          tmp_path, capsys):
    code, doc = invoke(capsys, *_argv(command, flags, form, tmp_path))
    assert code == 1
    assert doc["status"] == "schema-error"
    assert "unrecognized arguments" in doc["error"]


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


CURVE_FLAGS = {"rosenhain": "2,3,5", "igusa": "550,12,-7,2073600",
               "siegel": "3,5,7,11", "sextic": "0,30,-61,41,-11,1"}
CURVE_PAIRS = list(itertools.combinations(CURVE_FLAGS, 2))


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
    assert commands == set(cli._HANDLERS)
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

