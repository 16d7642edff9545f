import json
import subprocess
import sys
from fractions import Fraction

import pytest

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


NON_FINITE_INPUTS = (
    ("theta", {"tau": "0,inf,0,0,0,inf"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "nan"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "-1"}),
    ("roundtrip", {"rosenhain": "2,3,5", "tol": "inf"}),
)


@pytest.mark.parametrize("form", ("argv", "run"))
@pytest.mark.parametrize("command,flags", NON_FINITE_INPUTS,
                         ids=["tau-inf", "tol-nan", "tol-negative", "tol-inf"])
def test_non_finite_numeric_input_is_a_schema_error(command, flags, form,
                                                    tmp_path, capsys):
    if form == "argv":
        argv = [command] + [f"--{k}={v}" for k, v in flags.items()]
    else:
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"command": command, "input": flags}))
        argv = ["run", str(job)]
    code, doc = invoke(capsys, *argv)
    assert code == 1
    assert doc["status"] == "schema-error"


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


def test_exact_commands_never_import_numpy():
    script = (
        "import contextlib, io, json, sys\n"
        "from g2satake.cli import run\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(EXACT_COMMANDS)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
