import json
import os
import subprocess
import sys

import pytest

from lattice_homog import cli
from lattice_homog.lgf import builtin_example_text


@pytest.fixture
def ex_path(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.lgf"
        p.write_text(builtin_example_text(name))
        return str(p)
    return write


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(ex_path, capsys):
    code, out, _ = run_cli(capsys, "validate", ex_path("ex6"))
    assert code == 0
    assert "[ok] connectedness" in out


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.lgf"
    bad.write_text("d 1\nk 1\nT 1\nnode 0 0\nnode 0 1\n"
                   "edge (0 0) (0 0)+1 1.0\nedge (0 1) (0 1)+1 1.0\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "[FAIL] connectedness" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cell", "missing.lgf")
    assert code == 2
    assert "file not found" in err


def test_parse_error_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.lgf"
    p.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "cell", str(p))
    assert code == 2
    assert "MissingHeader" in err


def test_cell_json_schema(ex_path, capsys):
    code, out, _ = run_cli(capsys, "cell", ex_path("ex5"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lattice-homog/1"
    assert doc["tensor"]["convention"] == "double"
    assert doc["axes"][0]["f_hom"] == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert doc["axes"][0]["f_hom_other_convention"] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_cell_human_and_json_agree(ex_path, capsys):
    path = ex_path("ex4")
    _, human, _ = run_cli(capsys, "cell", path)
    _, out, _ = run_cli(capsys, "cell", path, "--format", "json")
    doc = json.loads(out)
    assert repr(doc["axes"][0]["f_hom"]) in human


def test_emit_deterministic(ex_path, capsys):
    path = ex_path("ex2")
    _, a, _ = run_cli(capsys, "asymptotic", path, "--k", "2,4", "--format", "json")
    _, b, _ = run_cli(capsys, "asymptotic", path, "--k", "2,4", "--format", "json")
    da, db = json.loads(a), json.loads(b)
    for doc in (da, db):
        for row in doc["rows"]:
            row.pop("seconds")
    assert da == db


def test_asymptotic_human_direction_is_plain(ex_path, capsys):
    code, out, _ = run_cli(capsys, "asymptotic", ex_path("ex5"), "--k", "2,4")
    assert code == 0
    assert ": window study, z=[1.0], f_hom=" in out.splitlines()[0]


def test_asymptotic_csv_header(ex_path, capsys):
    code, out, _ = run_cli(capsys, "asymptotic", ex_path("ex1"), "--k", "2,4",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "K,f0K,gap,seconds"
    assert len(out.splitlines()) == 3


def test_inequalities_exit_zero(ex_path, capsys):
    code, out, _ = run_cli(capsys, "inequalities", ex_path("ex3"),
                           "--trials", "40", "--seed", "5", "--widths", "16,32")
    assert code == 0
    assert "[ok] two-connectedness" in out
    assert "[ok] poincare-wirtinger" in out


def test_inequalities_json_config_seed(ex_path, capsys):
    code, out, _ = run_cli(capsys, "inequalities", ex_path("ex2"),
                           "--trials", "24", "--seed", "9", "--widths", "16,32",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 9
    assert doc["two_connectedness"]["holds"] is True


def test_bvp_csv(ex_path, capsys):
    code, out, _ = run_cli(capsys, "bvp", ex_path("ex1"), "--omega", "0,1",
                           "--phi", "x", "--eps", "1/4,1/8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps,discrete_energy,continuum_energy,l2_error,seconds"
    assert lines[1].startswith("1/4,")


def test_bvp_rejects_malformed_phi(ex_path, capsys):
    code, _, err = run_cli(capsys, "bvp", ex_path("ex1"), "--omega", "0,1",
                           "--phi", "__import__('os')", "--eps", "1/4")
    assert code == 2
    assert "phi" in err


def test_bvp_rejects_coordinates_beyond_d(ex_path, capsys):
    code, out, err = run_cli(capsys, "bvp", ex_path("ex5"), "--omega", "0,1",
                             "--phi", "y", "--eps", "1/4")
    assert (code, out, err) == (2, "", "error: --phi uses 'y', but the graph has d=1\n")
    with pytest.raises(cli.UsageError, match="uses 'z', but the graph has d=2"):
        cli.parse_datum("x + z", 2)
    with pytest.raises(cli.UsageError, match="unknown name 'xy'"):
        cli.parse_datum("xy", 2)
    assert cli.parse_datum("x * y", 2)([2.0, 3.0]) == 6.0


def test_bvp_rejects_bad_eps(ex_path, capsys):
    code, _, err = run_cli(capsys, "bvp", ex_path("ex1"), "--omega", "0,1",
                           "--phi", "x", "--eps", "1/nope")
    assert code == 2


def test_bvp_eps_off_the_period_is_usage_error(ex_path, capsys):
    # ex1 has T = 2, so 1/eps = 3 is not a multiple of it
    code, out, err = run_cli(capsys, "bvp", ex_path("ex1"), "--omega", "0,1",
                             "--phi", "x", "--eps", "1/3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "multiple of T=2" in err


def test_bvp_rejects_zero_eps(ex_path, capsys):
    code, _, err = run_cli(capsys, "bvp", ex_path("ex1"), "--omega", "0,1",
                           "--phi", "x", "--eps", "0")
    assert code == 2
    assert err == "error: --eps must list positive rationals\n"


def test_inequalities_width_without_free_vertex_is_usage_error(ex_path, capsys):
    code, out, err = run_cli(capsys, "inequalities", ex_path("ex1"), "--trials", "4",
                             "--widths", "1")
    assert (code, out) == (2, "")
    assert err == "error: --widths: width 1 leaves no admissible vertex\n"


def test_inequalities_negative_width_is_usage_error(ex_path, capsys):
    # numpy's "negative dimensions are not allowed" used to come through
    code, out, err = run_cli(capsys, "inequalities", ex_path("ex1"), "--widths", "-2")
    assert (code, out) == (2, "")
    assert err == "error: --widths: width -2 must be at least 1\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_inequalities_rejects_trials_below_one(ex_path, capsys, trials):
    code, out, err = run_cli(capsys, "inequalities", ex_path("ex2"), "--trials", trials)
    assert (code, out) == (2, "")
    assert err == "error: --trials must be at least 1\n"


def test_inequalities_rejects_negative_seed(ex_path, capsys):
    code, out, err = run_cli(capsys, "inequalities", ex_path("ex2"), "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative\n"


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_cell_rejects_non_positive_tol(ex_path, capsys, tol):
    code, out, err = run_cli(capsys, "cell", ex_path("ex1"), f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == "error: --tol must be positive\n"


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_undecodable_file_is_usage_error(tmp_path, capsys, fmt):
    p = tmp_path / "latin1.lgf"
    p.write_bytes(b"# caf\xe9\nd 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\n")
    code, out, err = run_cli(capsys, "validate", str(p), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("command", ["cell", "asymptotic"])
@pytest.mark.parametrize("tol,message", [("nan", "positive"), ("1", "below 1"),
                                         ("2.5", "below 1"), ("inf", "below 1")])
def test_tol_outside_unit_interval_is_usage_error(ex_path, capsys, command, tol, message):
    code, out, err = run_cli(capsys, command, ex_path("ex3"), f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: --tol must be {message}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--k", "1", "--k values must be at least 2"),
    ("--k", "4,0", "--k values must be at least 2"),
    ("--k", "2,2", "--k values must be distinct"),
    ("--k", "4,2,4", "--k values must be distinct"),
    ("--z", "1,2", "--z needs 1 finite numbers for d=1"),
    ("--z", "nan", "--z needs 1 finite numbers for d=1"),
    ("--z", "inf", "--z needs 1 finite numbers for d=1"),
])
def test_asymptotic_bad_window_or_direction_is_usage_error(ex_path, capsys, flag, value,
                                                          message):
    code, out, err = run_cli(capsys, "asymptotic", ex_path("ex1"), flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_examples_listing_and_export(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    code, out, _ = run_cli(capsys, "examples", "--export", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"ex{i}.lgf" for i in range(1, 7)]
    assert "ex5: d=1 k=1 T=4" in out


def test_runs_back_to_back_print_what_each_prints_alone(ex_path, capsys):
    # run() keeps one parser for the process; no run may leave state in it
    runs = [["inequalities", ex_path("ex2"), "--trials", "12", "--seed", "3",
             "--widths", "16", "--format", "json"],
            ["cell", ex_path("ex5"), "--convention", "single", "--tol", "1e-8"],
            ["inequalities", ex_path("ex2"), "--trials", "8", "--widths", "16"],
            ["examples", "--format", "json"],
            ["bvp", ex_path("ex1"), "--omega", "0,1", "--phi", "w"],
            ["validate", ex_path("ex3")],
            ["cell", ex_path("ex5")],
            ["asymptotic"]]
    together = [run_cli(capsys, *argv) for argv in runs]
    alone = []
    for argv in runs:
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert together == alone
    assert cli._parser() is cli._parser()


def test_cached_parser_calls_the_subcommand_bound_now(ex_path, capsys, monkeypatch):
    run_cli(capsys, "validate", ex_path("ex1"))
    monkeypatch.setattr(cli, "cmd_validate", lambda args: ({"human": [args.file]}, 0))
    assert run_cli(capsys, "validate", "x.lgf") == (0, "x.lgf\n", "")


def test_usage_error_exit_code(capsys):
    assert cli.run(["asymptotic"]) == 2  # missing file argument


def test_console_entry_point(ex_path):
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lattice_homog.cli",
                           "validate", ex_path("ex1")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "connectedness" in proc.stdout
