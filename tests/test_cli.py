import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pauligl import (ANTISYMMETRIC_GL4_SUPPORT, CoefficientTensor, QVector,
                     SymmetryKind, classify_basis, composition, decompose, project,
                     qvector_to_coeffs)
from pauligl.cli import dispatch
from pauligl.fileio import (format_coefficients, format_matrix, format_qvector,
                            parse_coefficients, parse_matrix, parse_qvector)

from conftest import edge_floats, random_complex_matrix


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

    def test_short_matrix_file_reports_its_bad_row(self, tmp_path):
        # in a fresh process: 400 KB of text whose header claims a
        # 100000 x 100000 matrix is refused at its first row, with no
        # attempt to allocate the 160 GB array
        path = write(tmp_path / "a.cmat", "100000\n" + "0,0\n" * 100000)
        proc = subprocess.run([sys.executable, "-m", "pauligl", "decompose", path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: line 2: expected 100000 entries, found 1\n")


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

    def test_output_past_its_limit(self, tmp_path, capsys):
        # 4,096 distinct output codes of two random m = 32 files
        rng = np.random.default_rng(32)
        paths = []
        for name in "ab":
            codes = np.unique(rng.integers(0, 2 ** 64, 64, dtype=np.uint64))
            values = rng.standard_normal(len(codes)) + 1j * rng.standard_normal(len(codes))
            c = CoefficientTensor._from_codes(32, codes, values, 0.0)
            paths.append(write(tmp_path / f"{name}.pcoef", format_coefficients(c)))
        with mock.patch.object(composition, "_MAX_OUTPUT_TERMS", 1000):
            code, out, err = run_cli(capsys, "compose", *paths)
        assert (code, out) == (2, "")
        assert err == ("error: compose output has at least 4096 terms, "
                       "past the limit of 1000\n")

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
        # keeps the symmetric sigma1 term; reconstruct's sums overflow, and
        # it refuses the non-finite matrix that no reader would accept.
        if command == "transpose":
            want = (0, format_coefficients(parse_coefficients(text)), "")
        else:
            want = (2, "", "error: non-finite matrix entry: a sum of "
                           "coefficients overflows\n")
        path = write(tmp_path / "c.pcoef", text)
        proc = subprocess.run([sys.executable, "-m", "pauligl", command, path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == want

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

    def test_integer_above_the_digit_limit_is_usage_error(self, capsys):
        # 5000 digits is above sys.get_int_max_str_digits()'s default 4300
        big = "1" * 5000
        code, out, err = run_cli(capsys, "index", "to-local", "--shape", "2,2", big)
        assert (code, out) == (1, "")
        assert err == f"error: argument index: expected an integer, got {big!r}\n"

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


class TestRepeatedDispatch:
    def test_each_command_runs_the_same_twice(self, tmp_path, capsys):
        # one process keeps one parser; no run may change what a later one sees
        a = write(tmp_path / "a.pcoef", "2\n10 1 0\n")
        b = write(tmp_path / "b.pcoef", "2\n20 1 0\n")
        commands = [["bogus"], ["--help"], ["compose", a, b], ["verify", "--seed", "3"]]
        first = [run_cli(capsys, *argv) for argv in commands]
        assert [run_cli(capsys, *argv) for argv in commands] == first
        assert [code for code, _, _ in first] == [1, 0, 0, 0]


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


# -- every file a command writes is one its reader accepts ----------------------

edge_complex = st.builds(complex, edge_floats, edge_floats)


@st.composite
def coefficient_texts(draw, m, support=None):
    indices = sorted(support) if support else list(itertools.product(range(4), repeat=m))
    chosen = draw(st.lists(st.sampled_from(indices), unique=True, max_size=6))
    values = draw(st.lists(edge_complex, min_size=len(chosen), max_size=len(chosen)))
    return format_coefficients(CoefficientTensor(m, dict(zip(chosen, values)), tol=0.0))


@st.composite
def matrix_texts(draw):
    n = 2 ** draw(st.integers(1, 3))
    values = draw(st.lists(edge_complex, min_size=n * n, max_size=n * n))
    return format_matrix(np.array(values).reshape(n, n))


def qvector_texts():
    return st.lists(edge_floats, min_size=6, max_size=6).map(
        lambda v: format_qvector(QVector(tuple(v[:3]), tuple(v[3:]))))


def writer_runs():
    """(argv before the input files, input file texts, (reader, writer) of
    the output format)."""
    coefficients = (parse_coefficients, format_coefficients)
    one = st.integers(1, 3).flatmap(coefficient_texts).map(lambda t: [t])
    pair = st.integers(1, 3).flatmap(
        lambda m: st.lists(coefficient_texts(m), min_size=2, max_size=2))

    def order_two_pair(support=None):
        return st.lists(coefficient_texts(2, support), min_size=2, max_size=2)

    # real vectors give a readable result, other coefficients a named error
    qvector_coefficients = st.one_of(
        coefficient_texts(2, ANTISYMMETRIC_GL4_SUPPORT),
        qvector_texts().map(lambda t: format_coefficients(
            qvector_to_coeffs(parse_qvector(t), tol=0.0))))
    runs = [
        (["decompose"], matrix_texts().map(lambda t: [t]), coefficients),
        (["reconstruct"], one, (parse_matrix, format_matrix)),
        (["compose"], pair, coefficients),
        (["compose", "--method", "gl4"], order_two_pair(), coefficients),
        (["compose", "--method", "antisym-gl4"],
         order_two_pair(ANTISYMMETRIC_GL4_SUPPORT), coefficients),
        (["transpose"], one, coefficients),
        (["project", "--symmetric"], one, coefficients),
        (["project", "--antisymmetric"], one, coefficients),
        (["qvec", "to-coef"], qvector_texts().map(lambda t: [t]), coefficients),
        (["qvec", "from-coef"], qvector_coefficients.map(lambda t: [t]),
         (parse_qvector, format_qvector)),
    ]
    return st.one_of(*(texts.map(lambda t, argv=argv, io=io: (argv, t, io))
                       for argv, texts, io in runs))


class TestWrittenFilesReadBack:
    # the autouse environment fixture need not run again for each example
    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(writer_runs())
    # a sum that overflows, which reconstruct once wrote as "inf,nan"
    @example((["reconstruct"], ["1\n0 1.7e308 0\n3 1.7e308 0\n"],
              (parse_matrix, format_matrix)))
    def test_output_reads_back_or_named_error(self, run):
        argv, inputs, (read, fmt) = run
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for k, text in enumerate(inputs):
                paths.append(os.path.join(tmp, f"in{k}"))
                with open(paths[-1], "w") as fh:
                    fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv + paths)
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == "" and re.fullmatch(r"error: [^\n]+\n", err)
        else:
            assert (code, err) == (0, "")
            assert fmt(read(out)) == out


# -- output bits do not depend on the number of BLAS threads --------------------

_RUN_COMMANDS = textwrap.dedent("""
    import contextlib, hashlib, io, json, sys
    from pauligl.cli import dispatch
    results = []
    for argv in json.loads(sys.argv[1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dispatch(argv)
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
    json.dump(results, sys.stdout)
""")


def _random_coefficient_text(rng, m, terms):
    codes = np.sort(rng.choice(4 ** m, size=terms, replace=False)).astype(np.uint64)
    values = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return format_coefficients(CoefficientTensor._from_codes(m, codes, values, 0.0))


class TestBlasThreads:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        # inputs shaped like the benchmark's: a dense 256x256 matrix, 256-term
        # m=6 and 128-term m=12 operands, and order-2 closed-form operands
        rng = np.random.default_rng(2024)
        a = random_complex_matrix(rng, 256)
        files = {
            "a.cmat": format_matrix(a),
            "a.pcoef": format_coefficients(decompose(a)),
            "d1.pcoef": _random_coefficient_text(rng, 6, 256),
            "d2.pcoef": _random_coefficient_text(rng, 6, 256),
            "s1.pcoef": _random_coefficient_text(rng, 12, 128),
            "s2.pcoef": _random_coefficient_text(rng, 12, 128),
            "g1.pcoef": _random_coefficient_text(rng, 2, 16),
            "g2.pcoef": _random_coefficient_text(rng, 2, 16),
            "q1.pcoef": format_coefficients(qvector_to_coeffs(QVector(
                tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3))))),
            "q2.pcoef": format_coefficients(qvector_to_coeffs(QVector(
                tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3))))),
        }
        tmp_path = tmp_path_factory.mktemp("blas")
        return {name: write(tmp_path / name, text) for name, text in files.items()}

    def test_outputs_identical_with_one_and_two_threads(self, path):
        commands = [
            ["decompose", path["a.cmat"]],
            ["reconstruct", path["a.pcoef"]],
            ["compose", path["d1.pcoef"], path["d2.pcoef"]],
            ["compose", path["s1.pcoef"], path["s2.pcoef"]],
            ["compose", path["g1.pcoef"], path["g2.pcoef"], "--method", "gl4"],
            ["compose", path["q1.pcoef"], path["q2.pcoef"],
             "--method", "antisym-gl4"],
            ["verify", "--seed", "0"],
        ]

        def run(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
                capture_output=True, text=True, env=env, timeout=600)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        one, two = run(1), run(2)
        assert [code for code, _ in one] == [0] * len(commands)
        assert one == two

    @pytest.mark.parametrize("pair, methods", [
        (("g1.pcoef", "g2.pcoef"), ["gl4"]),
        (("q1.pcoef", "q2.pcoef"), ["gl4", "antisym-gl4"]),
    ])
    def test_order_two_methods_print_general_bytes(self, path, pair, methods,
                                                   capsys):
        operands = [path[name] for name in pair]
        general = run_cli(capsys, "compose", *operands)
        assert general[0] == 0
        for method in methods:
            assert run_cli(capsys, "compose", *operands,
                           "--method", method) == general
