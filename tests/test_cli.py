import gc
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import geninv
from geninv import cli, matrix, projectors
from geninv.cli import main
from geninv.io import format_matrix, parse_matrix
from geninv.reference import (PAIR_4X3_A, PAIR_4X3_W, PAIR_5X4_A, PAIR_5X4_W, WCEP_4X3,
                              WQBT_4X3, float_matrix)

from conftest import cold, rel


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(x) for x in row) for row in rows) + "\n")
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    a = write_csv(tmp_path / "a.csv", PAIR_4X3_A)
    w = write_csv(tmp_path / "w.csv", PAIR_4X3_W)
    return a, w


PENROSE = ["penrose1", "penrose2", "penrose3", "penrose4"]
DRAZIN = ["outer", "commute", "chain"]
CORE = ["outer", "hermitian_left", "chain"]
# integer matrices of index 2 and of index 1
SQUARE_I2 = [[1, 0, 0, -1, 0, -1], [-1, 3, -1, 1, 0, 0], [0, 3, 1, 2, 0, 3],
             [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 0], [1, -3, 1, -1, 0, 0]]
SQUARE_I1 = [[2, 0, 0, 2, -1], [-1, 1, 1, -1, 1], [1, 0, 1, 4, -2],
             [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
PAIR_4X3 = [PAIR_4X3_A, PAIR_4X3_W]
PAIR_5X4 = [PAIR_5X4_A, PAIR_5X4_W]
VERIFY_CASES = [
    ("pinv", [], [SQUARE_I2], PENROSE),
    ("drazin", [], [SQUARE_I2], DRAZIN),
    ("group", [], [SQUARE_I1], DRAZIN),
    ("core", [], [SQUARE_I1], CORE),
    ("core-ep", [], [SQUARE_I2], PENROSE),
    ("bt", [], [SQUARE_I2], PENROSE),
    ("qbt", ["--q", "2"], [SQUARE_I2], PENROSE),
    ("wdrazin", [], PAIR_4X3, DRAZIN),
    ("wcore-ep", [], PAIR_5X4, PENROSE),
    ("wbt", [], PAIR_5X4, PENROSE),
    ("wqbt", ["--q", "1"], PAIR_4X3, PENROSE),
]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInverseCommands:
    def test_pinv_csv_golden(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[2, 0], [0, 0]])
        code, out, _ = run_main(capsys, "pinv", a)
        assert code == 0
        assert out.strip().splitlines() == ["0.5,0", "0,0"]

    def test_exact_output_uses_fractions(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[3, 0], [0, 0]])
        code, out, _ = run_main(capsys, "pinv", a, "--exact")
        assert code == 0
        assert out.strip().splitlines() == ["1/3,0", "0,0"]

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_wqbt_reference_values_exact(self, pair_files, capsys, q):
        a, w = pair_files
        code, out, _ = run_main(capsys, "wqbt", "--q", str(q), a, w, "--exact")
        assert code == 0
        expected = float_matrix(WQBT_4X3[q])
        got = parse_matrix(out, "csv")
        assert rel(got, expected) == 0.0

    def test_wqbt_float_matches_exact(self, pair_files, capsys):
        a, w = pair_files
        code, out_float, _ = run_main(capsys, "wqbt", "--q", "2", a, w)
        assert code == 0
        got = parse_matrix(out_float, "csv")
        assert rel(got, float_matrix(WQBT_4X3[2])) < 1e-10

    def test_json_in_json_out(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        p.write_text(json.dumps(
            {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0]]}))
        code, out, _ = run_main(capsys, "core-ep", str(p))
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 2
        assert np.array_equal(parse_matrix(out, "json"), [[1, 0], [0, 0]])

    @pytest.mark.parametrize("path", ["float", "exact"])
    @pytest.mark.parametrize("kind, args, inputs, names", VERIFY_CASES,
                             ids=[case[0] for case in VERIFY_CASES])
    def test_verify_prints_the_defining_system(self, tmp_path, capsys, kind, args,
                                               inputs, names, path):
        files = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(inputs)]
        extra = ["--exact"] if path == "exact" else []
        code, out, _ = run_main(capsys, kind, *args, *files, *extra, "--verify")
        assert code == 0
        residuals = [ln.split(" = ") for ln in out.splitlines() if ln.startswith("residual ")]
        assert [name.removeprefix("residual ") for name, _ in residuals] == names
        for _, value in residuals:
            if path == "exact":
                assert value == "0.000000e+00"
            else:
                assert float(value) < 1e-10

    @pytest.mark.parametrize("kind, args, inputs, names", VERIFY_CASES,
                             ids=[case[0] for case in VERIFY_CASES])
    def test_verify_sees_a_perturbed_inverse(self, tmp_path, capsys, monkeypatch, kind, args,
                                             inputs, names):
        # every residual --verify prints can fail: a 1e-6 relative complex
        # perturbation of the float result lifts each one above 1e-8
        name = cli.KINDS[kind].inverse
        routine = getattr(geninv, name)
        noise = np.random.default_rng(5)

        def perturbed(*call):
            x = routine(*call)
            e = noise.standard_normal(x.shape) + 1j * noise.standard_normal(x.shape)
            return x + 1e-6 * matrix.frobenius(x) / matrix.frobenius(e) * e

        monkeypatch.setattr(geninv, name, perturbed)
        files = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(inputs)]
        code, out, _ = run_main(capsys, kind, *args, *files, "--verify")
        assert code == 0
        residuals = [ln.split(" = ") for ln in out.splitlines() if ln.startswith("residual ")]
        assert [key.removeprefix("residual ") for key, _ in residuals] == names
        for key, value in residuals:
            assert float(value) >= 1e-8, key

    def test_one_penrose_definition(self, tmp_path, capsys, monkeypatch):
        # --verify and the conformance runner read the one Penrose system of
        # the residual layer, so a change to it reaches both
        from geninv.verify import run_example_checks

        monkeypatch.setattr(matrix, "penrose_residuals", lambda b, x: dict.fromkeys(PENROSE, 7.0))
        code, out, _ = run_main(capsys, "qbt", "--q", "2",
                                write_csv(tmp_path / "a.csv", SQUARE_I2), "--verify")
        assert code == 0
        assert [ln for ln in out.splitlines() if ln.startswith("residual ")] == [
            f"residual {key} = 7.000000e+00" for key in PENROSE]
        [check] = [r for r in run_example_checks().results
                   if r.check_id == "examples.pair4x3.reductions"]
        assert {key: check.residuals[f"q0_{key}"] for key in PENROSE} == dict.fromkeys(PENROSE, 7.0)

    def test_inverse_is_looked_up_on_the_package_when_called(self, tmp_path, capsys,
                                                             monkeypatch):
        calls = []
        core_ep = geninv.core_ep

        def counting(*args):
            calls.append(args)
            return core_ep(*args)

        monkeypatch.setattr(geninv, "core_ep", counting)
        code, _, _ = run_main(capsys, "core-ep", write_csv(tmp_path / "a.csv", SQUARE_I2))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["wcore-ep", "wdrazin"])
    def test_verify_reuses_the_pair_index(self, tmp_path, capsys, monkeypatch, kind):
        index_lapack_calls = [0]
        inside_index = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                index_lapack_calls[0] += bool(inside_index)
                return fn(*args, **kwargs)
            return wrapper

        def index_span(fn):
            def span(*args, **kwargs):
                inside_index.append(True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside_index.pop()
            return span

        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "qr", counted(np.linalg.qr))
        # the library and the CLI's residuals search every index through
        # the staircase's one search
        monkeypatch.setattr(projectors._Staircase, "search",
                            index_span(projectors._Staircase.search))
        files = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(PAIR_5X4)]
        runs = {}
        for extra in ([], ["--verify"]):
            index_lapack_calls[0] = 0
            code, out, _ = run_main(capsys, kind, *files, *extra)
            assert code == 0
            runs[bool(extra)] = index_lapack_calls[0], out
        assert runs[True][0] == runs[False][0] > 0
        assert runs[True][1].startswith(runs[False][1])

    def test_qbt_verify_takes_two_full_size_svds(self, tmp_path, capsys, monkeypatch):
        # the routine's thin SVD of A, which the residuals read from the
        # operand memo for the index and the scale, and the SVD of A^2 for
        # its projector
        shapes = []
        real_svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        a = write_csv(tmp_path / "a.csv", SQUARE_I2)
        code, _, _ = run_main(capsys, "qbt", "--q", "2", a, "--verify")
        assert code == 0
        assert shapes.count((6, 6)) == 2

    def test_qbt_verify_searches_no_index_of_its_own(self, tmp_path, capsys, monkeypatch):
        # the residuals read the index off the staircase the routine searched,
        # which the operand memo keeps: --verify adds the SVD of A^2 for its
        # projector and takes no staircase step
        shapes = []
        real_svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        a = write_csv(tmp_path / "a.csv", SQUARE_I2)
        runs = []
        for extra in ([], ["--verify"]):
            cold()
            shapes.clear()
            code, _, _ = run_main(capsys, "qbt", "--q", "2", a, *extra)
            assert code == 0
            runs.append(list(shapes))
        assert len(runs[0]) == 3
        assert runs[1] == runs[0] + [(6, 6)]

    @pytest.mark.parametrize("path", ["float", "exact"])
    @pytest.mark.parametrize("q", ["n", 60, 600, 2000])
    def test_q_beyond_dimension_gives_the_q_n_member(self, tmp_path, pair_files, capsys,
                                                     q, path):
        extra = ["--exact"] if path == "exact" else []
        b = write_csv(tmp_path / "b.csv", [[3, 1], [0, 2]])
        code, out, _ = run_main(capsys, "qbt", "--q", str(2 if q == "n" else q), b,
                                *extra, "--verify")
        assert code == 0
        got = parse_matrix(out.split("\n\n")[0], "csv")
        assert rel(got, [[1 / 3, -1 / 6], [0, 1 / 2]]) < 1e-12
        a, w = pair_files
        code, out, _ = run_main(capsys, "wqbt", "--q", str(4 if q == "n" else q), a, w,
                                *extra, "--verify")
        assert code == 0
        matrix, residuals = out.split("\n\n")
        assert rel(parse_matrix(matrix, "csv"), float_matrix(WCEP_4X3)) < 1e-12
        for line in residuals.splitlines():
            assert float(line.split("=")[1]) < 1e-10


    def test_verify_reads_a_right_inverse_as_right_at_large_q(self, tmp_path, capsys):
        # past the index the rank of the checked power would be decided
        # against sigma_max^q, which cond^q outgrows; the check clamps its
        # order at the index, as the routines clamp q
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40)) * 30  # index 0
        square = write_csv(tmp_path / "a.csv", a.tolist())
        rng = np.random.default_rng(0)
        pair = [write_csv(tmp_path / f"{name}.csv", (rng.standard_normal(shape) * 6).tolist())
                for name, shape in (("pa", (40, 30)), ("pw", (30, 40)))]  # k = 1
        for argv in (["qbt", "--q", "60", square], ["wqbt", "--q", "40", *pair]):
            code, out, _ = run_main(capsys, *argv, "--verify")
            assert code == 0
            result, residuals = out.split("\n\n")
            for line in residuals.splitlines():
                assert float(line.split("=")[1]) < 1e-10, (argv[0], line)
        assert rel(parse_matrix(run_main(capsys, "qbt", "--q", "60", square)[1], "csv"),
                   np.linalg.inv(a)) < 1e-12


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, err = run_main(capsys, "pinv", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "parse error" in err

    def test_malformed_entry_is_parse_error(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1, "x?"], [0, 1]])
        code, _, err = run_main(capsys, "pinv", a)
        assert code == 3
        assert "line 1" in err

    def test_domain_error(self, tmp_path, capsys):
        a = write_csv(tmp_path / "n.csv", [[0, 1], [0, 0]])
        code, _, err = run_main(capsys, "group", a)
        assert code == 4
        assert "index" in err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_index_above_one_names_the_routine(self, tmp_path, capsys, exact):
        a = write_csv(tmp_path / "n.csv", SQUARE_I2)
        for kind, name in (("core", "core inverse"), ("group", "group inverse")):
            code, _, err = run_main(capsys, kind, a, *exact)
            assert code == 4
            assert err == f"error: {name} requires index at most 1, computed index is 2\n"

    def test_shape_error(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1, 2, 3], [4, 5, 6]])
        code, _, err = run_main(capsys, "drazin", a)
        assert code == 4

    # inputs whose scale to a power leaves the double range: the core-EP
    # decomposition of a 24x24 Jordan chain with links 1e14
    # (sigma_max^24) and the Drazin inverse of diag(1e150, 0)
    # (sigma_max^3); neither call forms such a power
    LARGE_SCALES = pytest.mark.parametrize("argv, rows, line", [
        (["decompose", "core-ep"], np.diag(np.full(23, 1e14), 1),
         "residual nilpotency = 0.000000e+00"),
        (["drazin", "--verify"], np.diag([1e150, 0.0]), "1e-150,0"),
    ], ids=["core-ep", "drazin"])

    @LARGE_SCALES
    def test_large_scale_exits_0(self, tmp_path, capsys, argv, rows, line):
        a = write_csv(tmp_path / "j.csv", [["%g" % v for v in row] for row in rows])
        code, out, err = run_main(capsys, *argv, a)
        assert code == 0
        assert line in out.splitlines()
        assert err == ""

    @LARGE_SCALES
    def test_large_scale_prints_no_stderr(self, tmp_path, argv, rows, line):
        # in a child, whose stderr pytest does not capture: no numpy warning
        a = write_csv(tmp_path / "j.csv", [["%g" % v for v in row] for row in rows])
        proc = subprocess.run([sys.executable, "-m", "geninv", *argv, a],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert line in proc.stdout.splitlines()
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [["core-ep", "--verify"], ["qbt", "--q", "30", "--verify"]],
                             ids=["core-ep", "qbt"])
    def test_verify_on_a_large_chain_exits_0(self, tmp_path, capsys, argv):
        # the check's projector onto R(A^24) cuts (A / 1e14)^24 against 1,
        # where a cut against (1e14)^24 overflowed
        rows = np.diag(np.full(23, 1e14), 1)
        a = write_csv(tmp_path / "j.csv", [["%g" % v for v in row] for row in rows])
        code, out, err = run_main(capsys, *argv, a)
        assert code == 0
        residuals = [line for line in out.splitlines() if line.startswith("residual ")]
        assert residuals == [f"residual {name} = 0.000000e+00" for name in PENROSE]
        assert err == ""

    def test_weighted_large_scale_exits_0(self, tmp_path):
        # the pair builds with Ind(WA) = 1, where sigma_max(WA)^3 = 1e450
        a = write_csv(tmp_path / "a.csv", [["1e150", 0], [0, 0]])
        w = write_csv(tmp_path / "w.csv", [[1, 0], [0, 1]])
        proc = subprocess.run([sys.executable, "-m", "geninv", "wdrazin", a, w, "--verify"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[:2] == ["1e-150,0", "0,0"]
        assert "residual chain = 0.000000e+00" in proc.stdout.splitlines()
        assert proc.stderr == ""

    @pytest.mark.parametrize("name, text, where", [
        ("a.csv", "1,2\n3,1e400\n", "line 2, column 3"),
        ("a.json", '{"rows": 1, "cols": 2, "data": [[1, "1e400"]]}', "data[0][1]"),
        ("a.json", '{"rows": 1, "cols": 2, "data": [[1, 1e400]]}', "data[0][1]"),
    ], ids=["csv-cell", "json-string", "json-number"])
    def test_overflowing_entry_is_parse_error(self, tmp_path, capsys, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_main(capsys, "pinv", str(path))
        assert code == 3
        assert err.startswith("parse error:") and where in err

    @pytest.mark.parametrize("name, text, flags, where", [
        ("a.csv", "1,2\n3,1e-10000000\n", ["--exact"], "line 2, column 3"),
        ("a.json", '{"rows": 1, "cols": 2, "data": [[1, "1e10000000"]]}', ["--exact"],
         "data[0][1]"),
        ("a.csv", "1,2\n3,1e1_0000000\n", [], "line 2, column 3"),
    ], ids=["exact-csv", "exact-json-string", "float-underscore"])
    def test_huge_exponent_is_a_fast_parse_error(self, tmp_path, capsys, name, text, flags,
                                                 where):
        # 10**10000000 alone takes seconds to build as a Fraction
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        code, _, err = run_main(capsys, "pinv", str(path), *flags)
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert err.startswith("parse error:") and where in err

    @pytest.mark.parametrize("tail, code, where", [
        ("1/2", 0, ""),
        ("x", 3, "line 1, column 181"),
    ], ids=["fraction", "typo"])
    def test_long_integer_row_off_the_row_route_is_fast(self, tmp_path, tail, code, where):
        # 60 integer entries, then one the float row grammar rejects: a row
        # pattern that could split each integer two ways would retry 2**59
        # splits before falling back. Timed in a child so a stall fails.
        path = tmp_path / "a.csv"
        path.write_text(",".join(["10"] * 60 + [tail]) + "\n")
        probe = ("import sys, time; from geninv.cli import main; t = time.perf_counter(); "
                 "code = main(['pinv', sys.argv[1]]); "
                 "sys.stderr.write('\\n%d %.3f' % (code, time.perf_counter() - t))")
        proc = subprocess.run([sys.executable, "-c", probe, str(path)],
                              capture_output=True, text=True, timeout=60)
        got, seconds = proc.stderr.split()[-2:]
        assert int(got) == code
        assert float(seconds) < 0.5
        assert where in proc.stderr

    def test_usage_errors(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1]])
        assert run_main(capsys, "qbt", a)[0] == 2              # missing --q
        assert run_main(capsys, "qbt", "--q", "-1", a)[0] == 2
        assert run_main(capsys, "frobnicate", a)[0] == 2
        assert main([]) == 2

    @pytest.mark.parametrize("flag, value", [("--count", "0"), ("--max-dim", "1")])
    def test_corpus_size_is_a_usage_error(self, capsys, flag, value):
        code, _, err = run_main(capsys, "verify", "corpus", flag, value)
        assert code == 2
        assert err.startswith("usage error:") and flag in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "geninv" in capsys.readouterr().out


class TestToleranceResolution:
    # --tol and GENINV_TOL set the residual tolerance, which only the
    # weighted decomposition's structure checks and the verify runners read

    def test_env_var_is_read(self, tmp_path, capsys, monkeypatch):
        a = write_csv(tmp_path / "a.csv", [[1]])
        monkeypatch.setenv("GENINV_TOL", "not-a-number")
        for argv in (["decompose", "weighted-core-ep", a, a], ["verify", "examples"]):
            code, _, err = run_main(capsys, *argv)
            assert code == 2
            assert "GENINV_TOL" in err

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        a = write_csv(tmp_path / "a.csv", [[1]])
        monkeypatch.setenv("GENINV_TOL", "not-a-number")
        code, out, _ = run_main(capsys, "decompose", "weighted-core-ep", a, a, "--tol", "1e-8")
        assert code == 0
        assert out.split("A1:\n")[1].split("\n")[0] == "1"

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1]])
        assert run_main(capsys, "decompose", "weighted-core-ep", a, a, "--tol", "0")[0] == 2
        assert run_main(capsys, "verify", "examples", "--tol", "0")[0] == 2

    def test_core_ep_decomposition_takes_no_tolerance(self, tmp_path, capsys, monkeypatch):
        # core_ep_decompose makes rank decisions only; no residual is judged
        a = write_csv(tmp_path / "a.csv", [[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        code, out, _ = run_main(capsys, "decompose", "core-ep", a)
        assert code == 0
        monkeypatch.setenv("GENINV_TOL", "not-a-number")
        assert run_main(capsys, "decompose", "core-ep", a) == (0, out, "")
        code, _, err = run_main(capsys, "decompose", "core-ep", a, "--tol", "1e-8")
        assert code == 2
        assert err.startswith("usage error:") and "weighted-core-ep" in err

    @pytest.mark.parametrize("kind, files", [("pinv", [[[1]]]), ("wcore-ep", PAIR_5X4)],
                             ids=["pinv", "wcore-ep"])
    def test_inverse_kinds_take_no_tolerance(self, tmp_path, capsys, monkeypatch, kind, files):
        paths = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(files)]
        monkeypatch.setenv("GENINV_TOL", "not-a-number")
        assert run_main(capsys, kind, *paths, "--verify")[0] == 0
        assert run_main(capsys, kind, *paths, "--tol", "1e-8")[0] == 2


class TestDecompose:
    def test_core_ep_blocks_and_residuals(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        code, out, _ = run_main(capsys, "decompose", "core-ep", a)
        assert code == 0
        for label in ("rank = 1", "index = 2", "U:", "T:", "S:", "N:"):
            assert label in out
        for line in out.splitlines():
            if line.startswith("residual "):
                assert float(line.split("=")[1]) < 1e-9

    def test_weighted_requires_weight_file(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [[1]])
        code, _, err = run_main(capsys, "decompose", "weighted-core-ep", a)
        assert code == 2

    def test_weighted_blocks(self, pair_files, capsys):
        a, w = pair_files
        code, out, _ = run_main(capsys, "decompose", "weighted-core-ep", a, w)
        assert code == 0
        for label in ("t = ", "ind_aw = 3", "ind_wa = 2", "A1:", "W3:"):
            assert label in out


class TestValidateOnce:
    """A float call scans each input file for non-finite entries once: the
    routine it calls validates the parsed matrix, and the CLI's --verify
    residuals and decomposition residuals reuse that matrix."""

    @pytest.fixture
    def scans(self, monkeypatch):
        count = [0]
        isfinite = np.isfinite
        own = matrix.as_matrix.__code__

        def counted(x, *args, **kwargs):
            count[0] += sys._getframe(1).f_code is own
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        return count

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    @pytest.mark.parametrize("kind, args, inputs, names", VERIFY_CASES,
                             ids=[case[0] for case in VERIFY_CASES])
    def test_inverse_scans_each_file_once(self, tmp_path, capsys, scans, kind, args,
                                          inputs, names, verify):
        files = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(inputs)]
        code, _, _ = run_main(capsys, kind, *args, *files, *verify)
        assert code == 0
        assert scans[0] == len(files)

    @pytest.mark.parametrize("kind, inputs", [("core-ep", [SQUARE_I2]),
                                              ("weighted-core-ep", PAIR_4X3)])
    def test_decompose_scans_each_file_once(self, tmp_path, capsys, scans, kind, inputs):
        files = [write_csv(tmp_path / f"m{i}.csv", rows) for i, rows in enumerate(inputs)]
        code, _, _ = run_main(capsys, "decompose", kind, *files)
        assert code == 0
        assert scans[0] == len(files)


class TestVerifyCommand:
    def test_examples_scope_passes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run_main(capsys, "verify", "examples",
                                "--json", str(report_path))
        assert code == 0
        assert "PASS 15/15 checks" in out
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert len(payload["results"]) == 15

    def test_corpus_scope_small(self, capsys):
        code, out, _ = run_main(capsys, "verify", "corpus",
                                "--seed", "5", "--count", "6", "--max-dim", "6")
        assert code == 0
        assert "PASS" in out

    def test_failing_run_exits_five(self, capsys):
        code, out, _ = run_main(capsys, "verify", "examples", "--tol", "1e-30")
        assert code == 5
        assert "FAIL" in out


def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "geninv", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "command" in proc.stdout


def test_entry_point_roundtrip(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("1,0\n0,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "geninv.cli", "pinv", str(a), "--exact"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["1,0", "0,1/2"]


# Loaded ahead of the CLI in a child: records gc.get_freeze_count() each
# time a parser starts parsing, which `main` does first, and prints the
# counts on stderr at exit.
FREEZE_PROBE = """
import argparse, atexit, gc, sys
counts = []
parse_args = argparse.ArgumentParser.parse_args
def probe(self, *args, **kwargs):
    counts.append(gc.get_freeze_count())
    return parse_args(self, *args, **kwargs)
argparse.ArgumentParser.parse_args = probe
atexit.register(lambda: sys.stderr.write("\\nfreeze counts %s" % counts))
"""


@pytest.mark.parametrize("entry", [
    ["-m", "geninv"],
    ["-m", "geninv.cli"],
    ["-c", "from geninv.cli import run; run()"],
], ids=["python-m-geninv", "python-m-geninv.cli", "run"])
def test_every_process_entry_reaches_main_frozen(tmp_path, entry):
    (tmp_path / "sitecustomize.py").write_text(FREEZE_PROBE)
    path = os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))
    a = write_csv(tmp_path / "a.csv", [[2, 0], [0, 0]])
    proc = subprocess.run([sys.executable, *entry, "pinv", a], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0.5,0", "0,0"]
    counts = json.loads(proc.stderr.rsplit("freeze counts ", 1)[1])
    assert len(counts) == 1 and counts[0] > 0


def test_main_in_process_never_freezes(pair_files, capsys):
    before = gc.get_freeze_count()
    assert run_main(capsys, "wqbt", "--q", "2", *pair_files)[0] == 0
    assert gc.get_freeze_count() == before


def test_a_child_prints_what_main_prints(tmp_path, capsys):
    # every inverse kind on both paths with --verify, both decompositions,
    # a parse error and a usage error: stdout, stderr and exit code of
    # `python -m geninv` are those of `main` in this process
    calls = []
    for i, (kind, args, matrices, _) in enumerate(VERIFY_CASES):
        files = [write_csv(tmp_path / f"{i}_{j}.csv", rows) for j, rows in enumerate(matrices)]
        calls += [[kind, *args, *files, "--verify"], [kind, *args, *files, "--verify", "--exact"]]
    square = write_csv(tmp_path / "square.csv", SQUARE_I2)
    a, w = (write_csv(tmp_path / f"{name}.csv", rows) for name, rows in zip("aw", PAIR_4X3))
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    calls += [["decompose", "core-ep", square], ["decompose", "weighted-core-ep", a, w],
              ["pinv", str(bad)], ["qbt", square]]
    codes = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "geninv", *argv], capture_output=True,
                              text=True, timeout=60)
        code, out, err = run_main(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
        codes.append(code)
    assert codes == [0] * (len(calls) - 2) + [3, 2]


def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    rows = np.random.default_rng(64).standard_normal((64, 64))
    a = tmp_path / "a.csv"
    a.write_text(format_matrix(rows, "csv") + "\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "geninv", "pinv", str(a)], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


SCIPY_PROBE = """
import json, sys
import geninv, geninv.cli
MODULES = ["scipy", "geninv.verify", "geninv.exact", "geninv.decomposition"]
def probe():
    return [name in sys.modules for name in MODULES]
loaded = [probe()]
for argv in sys.argv[1:]:
    code = geninv.cli.main(argv.split("|"))
    loaded.append([argv, code, *probe()])
sys.stderr.write("\\n" + json.dumps(loaded))
"""


def test_scipy_never_loads(tmp_path):
    # every float call runs before the first --exact call, which loads
    # geninv.exact for the rest of the process; the decompositions load
    # geninv.decomposition and the corpus run geninv.verify, none of them
    # SciPy
    float_calls, exact_calls = [], []
    for i, (kind, args, matrices, _) in enumerate(VERIFY_CASES):
        files = [write_csv(tmp_path / f"{i}_{j}.csv", rows) for j, rows in enumerate(matrices)]
        float_calls.append("|".join([kind, *args, *files, "--verify"]))
        exact_calls.append("|".join([kind, *args, *files, "--verify", "--exact"]))
    square = write_csv(tmp_path / "square.csv", SQUARE_I2)
    a, w = (write_csv(tmp_path / f"{name}.csv", rows) for name, rows in zip("aw", PAIR_4X3))
    decompose_calls = [f"decompose|core-ep|{square}", f"decompose|weighted-core-ep|{a}|{w}"]
    verify_call = "verify|corpus|--seed|5|--count|6|--max-dim|6"
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *float_calls, *exact_calls,
                           *decompose_calls, verify_call],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == ([[False, False, False, False]]
                      + [[argv, 0, False, False, False, False] for argv in float_calls]
                      + [[argv, 0, False, False, True, False] for argv in exact_calls]
                      + [[argv, 0, False, False, True, True] for argv in decompose_calls]
                      + [[verify_call, 0, False, True, True, True]])
    assert "A1:" in proc.stdout
