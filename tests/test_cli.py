import itertools
import subprocess
import sys

import numpy as np
import pytest

from pauligl import (CoefficientTensor, SymmetryKind, classify_basis, decompose,
                     project)
from pauligl.cli import dispatch
from pauligl.fileio import (format_coefficients, format_matrix,
                            parse_coefficients, parse_matrix)

from conftest import random_complex_matrix
from reference import reference_reconstruct


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PAULIGL_TOL", raising=False)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDecompose:
    def test_identity_example(self, tmp_path, capsys):
        id4 = write(tmp_path / "id4.cmat", format_matrix(np.eye(4)))
        code, out, err = run_cli(capsys, "decompose", id4)
        assert (code, out, err) == (0, "2\n00 1 0\n", "")

    def test_tol_flag_prunes(self, tmp_path, capsys):
        a = np.eye(2) + 0.01 * np.array([[0, 1], [1, 0]])
        path = write(tmp_path / "a.cmat", format_matrix(a))
        code, out, _ = run_cli(capsys, "decompose", path, "--tol", "0.1")
        assert code == 0
        assert out == "1\n0 1 0\n"

    def test_env_tol(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAULIGL_TOL", "0.1")
        a = np.eye(2) + 0.01 * np.array([[0, 1], [1, 0]])
        path = write(tmp_path / "a.cmat", format_matrix(a))
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0 and out == "1\n0 1 0\n"

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAULIGL_TOL", "0.1")
        a = np.eye(2) + 0.01 * np.array([[0, 1], [1, 0]])
        path = write(tmp_path / "a.cmat", format_matrix(a))
        code, out, _ = run_cli(capsys, "decompose", path, "--tol", "1e-12")
        assert code == 0 and "1 0.01 0" in out

    def test_non_power_of_two_side(self, tmp_path, capsys):
        path = write(tmp_path / "bad.cmat", format_matrix(np.eye(3)))
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 2 and "power of two" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "no-such-file.cmat")
        assert code == 2 and err.startswith("error:")

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = write(tmp_path / "bad.cmat", "2\n1,0 0,0\n0,0 zz,0\n")
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 2 and "line 3" in err

    @pytest.mark.parametrize("command", ["decompose", "reconstruct"])
    def test_overlong_header(self, tmp_path, capsys, command):
        path = write(tmp_path / "big.txt", "1" * 5000 + "\n")
        code, _, err = run_cli(capsys, command, path)
        assert code == 2 and "line 1" in err


class TestReconstruct:
    def test_round_trip_via_files(self, tmp_path, capsys, rng):
        a = random_complex_matrix(rng, 4)
        coef = write(tmp_path / "a.pcoef",
                     format_coefficients(decompose(a, 0.0)))
        code, out, _ = run_cli(capsys, "reconstruct", coef)
        assert code == 0
        assert np.max(np.abs(parse_matrix(out) - a)) < 1e-12

    @pytest.mark.parametrize("m", [20, 40])
    def test_oversized_order_exits_2(self, tmp_path, capsys, m):
        for text in (f"{m}\n", f"{m}\n{'1' * m} 1 0\n"):
            path = write(tmp_path / "big.pcoef", text)
            code, out, err = run_cli(capsys, "reconstruct", path)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "Traceback" not in err


class TestCompose:
    @pytest.fixture
    def pair(self, tmp_path):
        a = write(tmp_path / "a.pcoef", "2\n10 1 0\n")
        b = write(tmp_path / "b.pcoef", "2\n20 1 0\n")
        return a, b

    def test_general_example(self, pair, capsys):
        code, out, err = run_cli(capsys, "compose", *pair)
        assert (code, out, err) == (0, "2\n30 0 1\n", "")

    def test_gl4_method(self, pair, capsys):
        code, out, _ = run_cli(capsys, "compose", *pair, "--method", "gl4")
        assert (code, out) == (0, "2\n30 0 1\n")

    def test_antisym_method_requires_support(self, pair, capsys):
        code, _, err = run_cli(capsys, "compose", *pair,
                               "--method", "antisym-gl4")
        assert code == 2 and "antisymmetric" in err

    def test_antisym_method(self, tmp_path, capsys):
        a = write(tmp_path / "s.pcoef", "2\n20 1 0\n")
        code, out, _ = run_cli(capsys, "compose", a, a,
                               "--method", "antisym-gl4")
        assert (code, out) == (0, "2\n00 1 0\n")

    def test_order_mismatch(self, tmp_path, capsys):
        a = write(tmp_path / "a.pcoef", "1\n1 1 0\n")
        b = write(tmp_path / "b.pcoef", "2\n20 1 0\n")
        code, _, err = run_cli(capsys, "compose", a, b)
        assert code == 2 and "order" in err

    def test_order_above_limit(self, tmp_path, capsys):
        a = write(tmp_path / "a.pcoef", "33\n")
        code, _, err = run_cli(capsys, "compose", a, a)
        assert code == 2 and "order" in err

    def test_gl4_overflow_reports_only_the_error(self, tmp_path):
        # in a fresh process, where numpy warnings reach stderr
        a = write(tmp_path / "a.pcoef", "2\n00 1e308 0\n11 1e308 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pauligl", "compose", a, a, "--method", "gl4"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: non-finite coefficient at (0, 0)\n"

    @pytest.mark.parametrize("command, text", [
        ("transpose", "1\n1 1.7976931348623157e308 1.7976931348623157e308\n"),
        ("reconstruct", "1\n0 1.7e308 0\n3 1.7e308 0\n"),
    ])
    def test_overflow_prints_no_warning(self, tmp_path, command, text):
        # in a fresh process, where numpy warnings reach stderr.  Transpose
        # keeps the symmetric sigma1 term; reconstruct prints the oracle's
        # matrix, with whatever inf and nan the BLAS makes of the overflow.
        c = parse_coefficients(text)
        with np.errstate(over="ignore", invalid="ignore"):
            out = (format_coefficients(c) if command == "transpose"
                   else format_matrix(reference_reconstruct(c)))
        path = write(tmp_path / "c.pcoef", text)
        proc = subprocess.run([sys.executable, "-m", "pauligl", command, path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_unknown_method(self, pair, capsys):
        code, _, _ = run_cli(capsys, "compose", *pair, "--method", "fast")
        assert code == 1


class TestTransposeClassifyProject:
    def test_transpose(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n20 1 0\n")
        code, out, _ = run_cli(capsys, "transpose", path)
        assert code == 0 and out == "2\n20 -1 -0\n"

    def test_classify_mixed(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n11 2 0\n20 1 0\n")
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert out == "11 symmetric\n20 antisymmetric\nmixed\n"

    def test_classify_antisymmetric(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n20 1 0\n12 0 1\n")
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0 and out.splitlines()[-1] == "antisymmetric"

    def test_classify_empty_is_symmetric(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n")
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0 and out == "symmetric\n"

    def test_classify_matches_classify_basis(self, tmp_path, capsys, rng):
        for m in range(1, 6):
            indices = list(itertools.product(range(4), repeat=m))
            chosen = rng.choice(len(indices), size=min(len(indices), 20),
                                replace=False)
            c = CoefficientTensor(m, {indices[k]: 1.0 for k in chosen})
            for t in (c, project(c, SymmetryKind.SYMMETRIC),
                      project(c, SymmetryKind.ANTISYMMETRIC),
                      CoefficientTensor(m)):
                kinds = [classify_basis(idx) for idx in t.coeffs]
                want = [f"{''.join(map(str, idx))} {kind.value}"
                        for idx, kind in zip(t.coeffs, kinds)]
                if set(kinds) == {SymmetryKind.ANTISYMMETRIC}:
                    want.append("antisymmetric")
                elif set(kinds) <= {SymmetryKind.SYMMETRIC}:
                    want.append("symmetric")
                else:
                    want.append("mixed")
                path = write(tmp_path / "c.pcoef", format_coefficients(t))
                assert run_cli(capsys, "classify", path) == (
                    0, "\n".join(want) + "\n", "")

    def test_project_each_kind(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n11 2 0\n20 1 0\n")
        code, out, _ = run_cli(capsys, "project", "--antisymmetric", path)
        assert code == 0 and out == "2\n20 1 0\n"
        code, out, _ = run_cli(capsys, "project", "--symmetric", path)
        assert code == 0 and out == "2\n11 2 0\n"

    def test_project_requires_exactly_one_flag(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n")
        assert run_cli(capsys, "project", path)[0] == 1
        assert run_cli(capsys, "project", "--symmetric",
                       "--antisymmetric", path)[0] == 1


class TestQvec:
    def test_to_coef(self, tmp_path, capsys):
        path = write(tmp_path / "q.qvec", "1 0 0 0 0 0\n")
        code, out, _ = run_cli(capsys, "qvec", "to-coef", path)
        assert code == 0 and out == "2\n12 0 0.5\n21 0 -0.5\n"

    def test_from_coef(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n12 0 0.5\n21 0 -0.5\n")
        code, out, _ = run_cli(capsys, "qvec", "from-coef", path)
        assert code == 0 and out == "1 0 0 0 0 0\n"

    def test_round_trip(self, tmp_path, capsys, rng):
        values = rng.standard_normal(6)
        path = write(tmp_path / "q.qvec",
                     " ".join(repr(float(v)) for v in values) + "\n")
        code, out, _ = run_cli(capsys, "qvec", "to-coef", path)
        assert code == 0
        coef = write(tmp_path / "q.pcoef", out)
        code, out, _ = run_cli(capsys, "qvec", "from-coef", coef)
        assert code == 0
        back = np.array([float(t) for t in out.split()])
        assert np.max(np.abs(back - values)) < 1e-12

    def test_from_coef_rejects_non_real(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n21 1 0\n12 -1 0\n")
        code, _, err = run_cli(capsys, "qvec", "from-coef", path)
        assert code == 2 and "real" in err

    def test_from_coef_rejects_support(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n11 1 0\n")
        code, _, err = run_cli(capsys, "qvec", "from-coef", path)
        assert code == 2


class TestIndex:
    def test_to_global_example(self, capsys):
        code, out, err = run_cli(capsys, "index", "to-global",
                                 "--shape", "2,2", "1", "0")
        assert (code, out, err) == (0, "2\n", "")

    def test_to_local(self, capsys):
        code, out, _ = run_cli(capsys, "index", "to-local",
                               "--shape", "2,3", "5")
        assert (code, out) == (0, "1 2\n")

    def test_bad_shape_literal(self, capsys):
        code, _, _ = run_cli(capsys, "index", "to-global",
                             "--shape", "2,x", "0", "0")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("to-global", "--shape", "2,2", "\u0661", "0"),
        ("to-global", "--shape", "\u0662,2", "1", "0"),
        ("to-local", "--shape", "2,2", "\u0663"),
    ], ids=["indices", "shape", "index"])
    def test_non_ascii_digit_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "index", *argv)
        assert (code, out) == (1, "") and err.startswith("error: argument")

    def test_factor_size_floor(self, capsys):
        code, _, _ = run_cli(capsys, "index", "to-global",
                             "--shape", "2,1", "0", "0")
        assert code == 2

    def test_arity_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "index", "to-global",
                             "--shape", "2,2", "1")
        assert code == 2

    def test_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "index", "to-local",
                             "--shape", "2,2", "4")
        assert code == 2


class TestUsageAndEnv:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1 and err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_bad_tol_literal(self, tmp_path, capsys):
        path = write(tmp_path / "c.pcoef", "2\n")
        code, _, _ = run_cli(capsys, "decompose", path, "--tol", "abc")
        assert code == 1

    def test_bad_env_tol(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAULIGL_TOL", "abc")
        path = write(tmp_path / "id2.cmat", format_matrix(np.eye(2)))
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 1 and "PAULIGL_TOL" in err


class TestVerifyCommand:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0
        assert out.startswith("verification (seed 7)\n")
        assert "overall: PASS" in out
        assert out.count("MISMATCH") == 1

    @pytest.mark.parametrize("seed", ["-1", "x", "\u0663"])
    def test_bad_seed_is_usage_error(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", "--seed", seed)
        assert (code, out) == (1, "") and "non-negative integer" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pauligl", "index", "to-global",
             "--shape", "2,2", "1", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "2\n"
