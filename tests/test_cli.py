"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import json
import sys
import time

import pytest

import specdens
import specdens.cli as cli
import specdens.minmax
from specdens.dyson import density_profile
from specdens.errors import (
    CyclicRelationError,
    EigFailureError,
    HasSupportError,
    ImaginarySignLostError,
    NonConvergenceError,
    SelfCheckError,
    SingularMatrixError,
    SpecdensError,
)
from specdens.report import canonical_json

ARROW_CSV = "1,1\n1,0\n"
NOSUPPORT_JSON = '{"K": 3, "entries": [[0,0,1],[0,0,1],[1,1,1]]}'


@pytest.fixture
def arrow_file(tmp_path):
    path = tmp_path / "arrow.csv"
    path.write_text(ARROW_CSV)
    return str(path)


@pytest.fixture
def nosupport_file(tmp_path):
    path = tmp_path / "nosupport.json"
    path.write_text(NOSUPPORT_JSON)
    return str(path)


def test_classify_json_is_canonical(arrow_file, capsys):
    assert cli.main(["classify", arrow_file]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    doc = json.loads(out)
    assert doc["sigma"] == "1/3"
    assert doc["schema"] == 1
    assert canonical_json(doc) == out  # byte-identical round trip


def test_classify_text(arrow_file, capsys):
    assert cli.main(["classify", arrow_file, "--out", "text"]) == 0
    out = capsys.readouterr().out
    assert "support class: SupportOnly" in out
    assert "sigma: 1/3" in out


def test_classify_no_support(nosupport_file, capsys):
    assert cli.main(["classify", nosupport_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support_class"] == "NoSupport"
    assert doc["kappa"] == "1/3"


def test_scaling_passes_tolerance(arrow_file, capsys):
    code = cli.main(["scaling", arrow_file, "--eta-max", "1e-4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "block,f_pred,slope_fit,abs_err"
    assert len(lines) == 3


def test_scaling_fails_absurd_tolerance(arrow_file, capsys):
    code = cli.main(["scaling", arrow_file, "--tolerance", "1e-9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "scaling check failed" in captured.err
    assert captured.out.startswith("block,")  # table still emitted


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_scaling_rejects_a_nan_or_negative_tolerance(
    arrow_file, capsys, monkeypatch, tolerance
):
    # nan passed every fit and -1 failed every fit; both are rejected
    # before any solve
    def no_fit(*args, **kwargs):
        raise AssertionError("solved before the tolerance was checked")

    monkeypatch.setattr(cli, "empirical_exponents", no_fit)
    assert cli.main(["scaling", arrow_file, "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be a finite real >= 0\n"


def test_scaling_requires_support(nosupport_file, capsys):
    assert cli.main(["scaling", nosupport_file]) == 1
    assert "no support" in capsys.readouterr().err


def test_density_output(arrow_file, capsys):
    code = cli.main(
        ["density", arrow_file, "--tau-min", "-0.4", "--tau-max", "0.4",
         "--points", "5", "--epsilon", "1e-3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,rho"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    rhos = [float(r) for _, r in rows]
    assert all(r > 0 for r in rhos)
    assert rhos[0] == pytest.approx(rhos[-1], rel=1e-6)  # even in tau


def test_simulate_output(arrow_file, capsys):
    code = cli.main(
        ["simulate", arrow_file, "--sizes", "4,8", "--trials", "3", "--seed", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "size_n,dim_N,mean_smin,stderr_smin,mean_cond"
    assert lines[-1].startswith("# slope ")
    assert "predicted -1.5" in lines[-1]


def test_simulate_is_reproducible(arrow_file, capsys):
    args = ["simulate", arrow_file, "--sizes", "4,8", "--trials", "3"]
    cli.main(args + ["--threads", "1"])
    first = capsys.readouterr().out
    cli.main(args + ["--threads", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_report_bundles_sections(arrow_file, capsys):
    assert cli.main(["report", arrow_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["limit_weights"]["h"] == ["2/3", "2/3"]
    assert doc["limit_weights"]["w_residual"] < 1e-4
    assert doc["residuals"]["fl_residual"] < 1e-4
    assert doc["scaling_fit"]["max_deviation"] < 0.05
    assert "sweep" not in doc


def test_report_no_support_omits_scaling(nosupport_file, capsys):
    assert cli.main(["report", nosupport_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == "1/3"
    assert "scaling_fit" not in doc
    assert "limit_weights" not in doc


def test_report_with_mc(arrow_file, capsys):
    code = cli.main(
        ["report", arrow_file, "--with-mc", "--sizes", "4,8", "--trials", "3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sweep"]["dims"] == [8, 16]


def test_report_rejects_the_all_flag(arrow_file, capsys):
    # --with-mc is the one flag that adds the sweep section
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", arrow_file, "--all"])
    assert exc.value.code == 2
    assert "--all" in capsys.readouterr().err


def test_report_section_errors_do_not_abort(arrow_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NonConvergenceError("budget exhausted", residual=1.0)

    monkeypatch.setattr(cli, "empirical_exponents", boom)
    assert cli.main(["report", arrow_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc["scaling_fit"]
    assert doc["limit_weights"]["h"] == ["2/3", "2/3"]


@pytest.mark.parametrize(
    "extra", [[], ["--with-mc", "--sizes", "4,8", "--trials", "3"]],
    ids=["plain", "with_mc"],
)
def test_report_classifies_once(arrow_file, capsys, monkeypatch, extra):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # wrap each function wherever a specdens module holds a reference to it;
    # _index_exponents solves the exponents for analyze and for the public
    # index_exponents alike
    for name in ("symmetric_normal_form", "build_relation", "_index_exponents"):
        original = getattr(specdens.minmax, name)
        wrapper = counted(name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("specdens")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, wrapper)
    assert cli.main(["report", arrow_file, *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == "1/3"
    assert ("sweep" in doc) == bool(extra)
    assert calls == {
        "symmetric_normal_form": 1, "build_relation": 1, "_index_exponents": 1,
    }


def test_exit_code_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert cli.main(["classify", missing]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4\n")  # not symmetric
    assert cli.main(["classify", str(bad)]) == 2
    nan = tmp_path / "nan.csv"
    nan.write_text("1,nan\nnan,1\n")
    assert cli.main(["classify", str(nan)]) == 2
    capsys.readouterr()
    malformed = tmp_path / "malformed.json"
    for text in (
        '{"K": null, "entries": [[1]]}',
        '{"K": [2], "entries": [[1]]}',
        '{"entries": [[{}]]}',
        '{"K": 1e400, "entries": [[1]]}',
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"K": 2.7, "entries": [[1, 1], [1, 0]]}',
        '{"K": true, "entries": [[1]]}',
        '{"K": "2", "entries": [[1, 1], [1, 0]]}',
    ):
        malformed.write_text(text)
        assert cli.main(["classify", str(malformed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


REFERENCE_CSV = "".join(",".join(row) + "\n" for row in [
    "0001100001", "0011000111", "0101000000", "1111000100", "1000000001",
    "0000000001", "0000001010", "0101000001", "0100001010", "1100110100",
])
SOLVER_PROFILES = {
    "arrow": ARROW_CSV, "chain3": "1,1,1\n1,1,0\n1,0,0\n", "reference": REFERENCE_CSV,
}
# SHA-256 of the stdout of the solver commands on profiles without repeated
# rows, captured when each solve started from the extrapolation of the
# previous solutions (the last digits of some values moved, by at most
# 1e-9 relative, when the predictor replaced the previous-point start)
SOLVER_OUTPUT_SHA256 = {
    ("arrow", "density"): "438784334b02f0a9e91f90961289ea118d598a9a0f8f4d7f4bc682022833ab8f",
    ("arrow", "scaling"): "d92d44c715a3a48f389a4becb3627f6ec0a0958033136484502859c0e0c06451",
    ("chain3", "density"): "a12f6684e05e097282f086960c59ec7cb6f8f76e32bcaeb2cbed8480f9fa5807",
    ("chain3", "scaling"): "112a5bf43d25e2d79d8e85814d4c19cfc025f47e1a916b367f07b8f6f85a9b1d",
    ("reference", "density"): "4330d868d0d935ed14fa3318ce1ba7988853609b95bd93a06a16c02fc91ecb6a",
    ("reference", "scaling"): "d68016b452b4a9e989b958f7d8d54904e70e293b7e2ce9b827c2c48efcd41167",
}


@pytest.mark.parametrize("name, command", sorted(SOLVER_OUTPUT_SHA256))
def test_solver_commands_are_byte_identical(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.csv"
    path.write_text(SOLVER_PROFILES[name])
    extra = ["--points", "101"] if command == "density" else []
    assert cli.main([command, str(path), *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVER_OUTPUT_SHA256[name, command]


def test_density_abandons_a_stalled_warm_start(arrow_file, capsys):
    # at tau = 0.1 the warm start predicted from the previous points stalls,
    # and the point is solved cold; a stalled warm start once ran its whole
    # 100,000-iteration budget first (about 1 s)
    t0 = time.perf_counter()
    assert cli.main(["density", arrow_file, "--points", "51"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b1b6b2908bd9c3898bae896ec0d89a273806eb215fb56bcfd6525b9d9a43da2"
    )
    assert elapsed < 0.5


def test_density_on_a_one_point_range(arrow_file, capsys):
    # five equal points: no three distinct points to extrapolate through,
    # and each row is the one-point solve
    argv = ["density", arrow_file, "--tau-min", "0.5", "--tau-max", "0.5", "--points", "5"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    one = density_profile([[1.0, 1.0], [1.0, 0.0]], [0.5], epsilon=1e-6).rho[0]
    assert len(rows) == 5 and captured.err == ""
    assert all(float(t) == 0.5 and abs(float(rho) / one - 1.0) <= 1e-9 for t, rho in rows)


def test_exit_code_invalid_argument(arrow_file, capsys):
    assert cli.main(["density", arrow_file, "--epsilon", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "epsilon" in captured.err


def test_exit_code_non_finite_epsilon(arrow_file, capsys):
    assert cli.main(["density", arrow_file, "--epsilon", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "epsilon must be a finite real > 0" in captured.err


def test_exit_code_non_finite_eta_bound(arrow_file, capsys):
    assert cli.main(["scaling", arrow_file, "--eta-max", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "eta_max" in captured.err


@pytest.mark.parametrize("per_decade", ["0", "-3"])
def test_exit_code_invalid_grid_density(arrow_file, capsys, per_decade):
    assert cli.main(["scaling", arrow_file, "--per-decade", per_decade]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "points_per_decade must be an integer >= 1" in captured.err


def test_exit_code_invalid_thread_count(arrow_file, capsys):
    assert cli.main(["simulate", arrow_file, "--sizes", "4,8", "--trials", "2",
                     "--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "workers must be an integer >= 1" in captured.err


def test_exit_code_zero_row(tmp_path, capsys):
    zed = tmp_path / "zed.csv"
    zed.write_text("1,0\n0,0\n")
    assert cli.main(["classify", str(zed)]) == 3
    assert cli.main(["scaling", str(zed)]) == 3
    capsys.readouterr()


def test_exit_code_non_convergence(arrow_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NonConvergenceError("budget exhausted", residual=1.0)

    monkeypatch.setattr(cli, "empirical_exponents", boom)
    assert cli.main(["scaling", arrow_file]) == 5
    capsys.readouterr()


def _raiser(exc):
    def boom(*args, **kwargs):
        raise exc

    return boom


@pytest.mark.parametrize(
    "command, target, exc, code",
    [
        ("classify", "classification_document",
         CyclicRelationError("block relation contains a cycle"), 4),
        ("classify", "classification_document",
         HasSupportError("profile has a positive diagonal"), 1),
        ("scaling", "empirical_exponents",
         SelfCheckError("solver result violates the a priori bounds"), 4),
        ("density", "density_profile",
         ImaginarySignLostError("iterate left the upper half-plane"), 5),
        ("simulate", "run_sweep", EigFailureError("eigvalsh failed"), 5),
        ("classify", "classification_document", SpecdensError("base"), 6),
        ("simulate", "run_sweep", SingularMatrixError("singular"), 6),
    ],
    ids=["cyclic", "has_support", "self_check", "imaginary_sign",
         "eig_failure", "base", "unmapped_subclass"],
)
def test_exit_code_package_errors(arrow_file, capsys, monkeypatch,
                                  command, target, exc, code):
    monkeypatch.setattr(cli, target, _raiser(exc))
    assert cli.main([command, arrow_file]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "error: " in err and str(exc) in err
