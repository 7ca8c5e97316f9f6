"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import json
import sys
import time

import pytest

import specdens
import specdens.cli as cli
import specdens.minmax
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
# rows, captured before identical rows were merged in the solvers
SOLVER_OUTPUT_SHA256 = {
    ("arrow", "density"): "1ab7bb3f2788a1e616d736fd2b8223ba253c1aa64e0ae5a833f4b1d1cd468462",
    ("arrow", "scaling"): "bee6692252d6533b10ff66e0f0e7a26ec670234be322d4c54dae841fdec93825",
    ("chain3", "density"): "48c7f0927c3a718e9f8d69983b05d179d825fcad182aa50b92430c58ab1577d1",
    ("chain3", "scaling"): "78f42919ad1c2b969e64db05fe151105e00d3d9688162923cdb621b96b3923a1",
    ("reference", "density"): "5c8183df13d71e61e9c75410d2d86126c5b0cd349439933a886d7920e40f2c9b",
    ("reference", "scaling"): "7deaf18d1e4b516f9d10a514d3c1bc182a8009a95939411418342af66a7a5450",
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
    # at tau = 0.1 the warm start from the previous point stalls, and the
    # point is solved cold; the digest was captured when the stalled warm
    # start still ran its whole 100,000-iteration budget first (about 1 s)
    t0 = time.perf_counter()
    assert cli.main(["density", arrow_file, "--points", "51"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a74f61c28a6cb5c8e68553a7790dfff9583f9156f0b1cf03024739afc3d78704"
    )
    assert elapsed < 0.5


def test_exit_code_invalid_argument(arrow_file, capsys):
    assert cli.main(["density", arrow_file, "--epsilon", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "epsilon" in captured.err


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
    assert "points_per_decade must be at least 1" in captured.err


def test_exit_code_invalid_thread_count(arrow_file, capsys):
    assert cli.main(["simulate", arrow_file, "--sizes", "4,8", "--trials", "2",
                     "--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "workers must be a positive integer" in captured.err


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
