"""File format round-trips and the command-line exit-code contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import random_complex, rng
import mapcones.cli as cli_mod
from mapcones.choi import identity_map
from mapcones.cli import main
from mapcones.cones import ConeId, MinEigCert, Status, in_F
from mapcones.fixtures import nondecomposable_map
from mapcones.io import MapFileError, dumps_matrix, load_matrix, loads_matrix, save_matrix
from mapcones.linalg import Dims


class TestMatrixFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        g = rng(90)
        mat = random_complex(g, (6, 6)) * np.exp(g.normal(size=(6, 6)) * 10)
        path = tmp_path / "m.json"
        save_matrix(path, 2, 3, mat)
        d, back = load_matrix(path)
        assert d == Dims(2, 3)
        assert np.array_equal(back, mat)

    def test_signed_zeros_round_trip(self):
        # every sign of zero in both parts, and entries that are not zero
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        others = [complex(-1.0, -0.5), complex(2.5, -3.0), complex(-0.25, 1e-300), complex(-1e-7, 4.0)]
        mat = np.array(zeros + others + zeros[::-1] + others[::-1]).reshape(4, 4)
        text = dumps_matrix(2, 2, mat)
        back = loads_matrix(text)[1]
        assert np.array_equal(back, mat)
        assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(mat.view(np.float64)))
        # a nonzero entry keeps the bytes of its .17g form
        for v in mat.ravel():
            if v.real != 0.0 and v.imag != 0.0:
                assert f"[{v.real:.17g}, {v.imag:.17g}]" in text

    def test_written_twice_identical(self, tmp_path):
        mat = identity_map(2).choi
        a = dumps_matrix(2, 2, mat)
        b = dumps_matrix(2, 2, mat)
        assert a == b

    def test_truncated_rejected(self):
        text = dumps_matrix(2, 2, np.eye(4))
        with pytest.raises(MapFileError):
            loads_matrix(text[: len(text) // 2])

    def test_wrong_entry_count(self):
        obj = json.loads(dumps_matrix(2, 2, np.eye(4)))
        obj["choi"] = obj["choi"][:-1]
        with pytest.raises(MapFileError):
            loads_matrix(json.dumps(obj))

    def test_bad_dims(self):
        obj = json.loads(dumps_matrix(2, 2, np.eye(4)))
        obj["n"] = 0
        with pytest.raises(MapFileError):
            loads_matrix(json.dumps(obj))

    def test_non_finite_rejected(self):
        obj = json.loads(dumps_matrix(2, 2, np.eye(4)))
        obj["choi"][0] = [1.0, "nan"]
        with pytest.raises(MapFileError):
            loads_matrix(json.dumps(obj))

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_boolean_dims_rejected(self, key, tmp_path, capsys):
        # JSON true is a Python int: it once loaded as Dims(True, 2)
        n, m = (1, 2) if key == "n" else (2, 1)
        obj = json.loads(dumps_matrix(n, m, np.eye(2)))
        obj[key] = True
        with pytest.raises(MapFileError, match="dimensions must be positive integers"):
            loads_matrix(json.dumps(obj))
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "cp"]) == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("entry,message", [
        ([1.0, True], "must be a [re, im] pair of numbers"),
        (["1.0", 0.0], "must be a [re, im] pair of numbers"),
        ([1.0, 0.0, 0.0], "must be a [re, im] pair of numbers"),
        (1.0, "must be a [re, im] pair of numbers"),
        ([float("nan"), 0.0], "is not finite"),
        ([0.0, 10**400], "is not finite"),
    ], ids=["bool", "string", "three numbers", "not a list", "nan", "int too large"])
    def test_bad_entry_named_by_index(self, entry, message):
        obj = json.loads(dumps_matrix(2, 2, np.eye(4)))
        obj["choi"][7] = entry
        with pytest.raises(MapFileError) as exc:
            loads_matrix(json.dumps(obj))
        assert str(exc.value) == f"entry 7 {message}"

    @pytest.mark.parametrize("first,second", [(3, 9), (9, 3)])
    def test_first_bad_entry_wins(self, first, second):
        # a number that is not finite and an entry that is not a pair, in either order
        obj = json.loads(dumps_matrix(2, 2, np.eye(4)))
        obj["choi"][first] = [float("inf"), 0.0]
        obj["choi"][second] = [0.0, None]
        with pytest.raises(MapFileError) as exc:
            loads_matrix(json.dumps(obj))
        kind = "is not finite" if first < second else "must be a [re, im] pair of numbers"
        assert str(exc.value) == f"entry {min(first, second)} {kind}"

    @pytest.mark.parametrize("text,message", [
        ('{"n": 1, "m": 1, "choi": [[1%s, 0]]}' % ("0" * 400), "entry 0 is not finite"),
        ('{"n": 1, "m": 1, "choi": [[1%s, 0]]}' % ("0" * 5000), "invalid JSON: Exceeds the limit"),
        ('{"n": 1, "m": 1, "choi": [[1, 0]]} \u00e9', "cannot read"),
    ], ids=["int too large", "5000-digit int", "not ascii"])
    def test_bad_file_exits_64(self, text, message, tmp_path, capsys):
        # once an OverflowError (exit 70), and a plain ValueError (exit 65) for the other two
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MapFileError, match=message):
            load_matrix(path)
        assert main(["check", str(path), "cp"]) == 64
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_negative_zero_read_bit_exact(self):
        d, x = loads_matrix('{"n": 1, "m": 1, "choi": [[-0.0, -0.0]]}')
        assert d == Dims(1, 1)
        assert np.signbit(x.real).all() and np.signbit(x.imag).all()

    def test_missing_field(self):
        with pytest.raises(MapFileError):
            loads_matrix(json.dumps({"n": 2, "m": 2}))

    def test_non_object_rejected(self):
        with pytest.raises(MapFileError, match="top-level value must be an object"):
            loads_matrix("[2, 2]")

    @pytest.mark.parametrize("n,m,mat", [
        (0, 0, np.zeros((0, 0))),
        (2, 2, np.diag([1.0, np.nan, 1.0, 1.0])),
        (2, 2, np.diag([1.0, 1.0, complex(0.0, np.inf), 1.0])),
    ], ids=["zero dims", "nan", "inf"])
    def test_unreadable_matrix_rejected_at_write(self, n, m, mat, tmp_path):
        # the JSON reader's NaN and Infinity carry the values to loads_matrix's own checks
        text = json.dumps({"n": n, "m": m, "choi": [[v.real, v.imag] for v in mat.ravel()]})
        with pytest.raises(MapFileError) as read:
            loads_matrix(text)
        path = tmp_path / "m.json"
        with pytest.raises(MapFileError) as written:
            save_matrix(path, n, m, mat)
        assert str(written.value) == str(read.value)
        assert not path.exists()


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    save_matrix(path, 3, 3, identity_map(3).choi)
    return str(path)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "lam.json"
    save_matrix(path, 3, 3, nondecomposable_map().choi)
    return str(path)


class TestCheckCommand:
    def test_identity_cp_in(self, identity_file, capsys):
        assert main(["check", identity_file, "cp"]) == 0
        assert "IN" in capsys.readouterr().out

    def test_identity_cop_out(self, identity_file):
        assert main(["check", identity_file, "cop"]) == 1

    def test_identity_e_in(self, identity_file):
        assert main(["check", identity_file, "e"]) == 0

    def test_fixture_d_out(self, fixture_file):
        assert main(["check", fixture_file, "d"]) == 1

    def test_truncated_file(self, tmp_path, identity_file):
        bad = tmp_path / "bad.json"
        bad.write_text(open(identity_file).read()[:40])
        assert main(["check", str(bad), "cp"]) == 64

    def test_psd_operator_check(self, identity_file):
        assert main(["check", identity_file, "psd"]) == 0

    def test_psd_out_carries_an_eigenvector(self, fixture_file):
        d, mat = load_matrix(fixture_file)
        args = cli_mod.build_parser().parse_args(["check", fixture_file, "psd"])
        v = cli_mod._CHECKS[ConeId.OP_PSD](mat, d, args)
        assert v.status is Status.OUT
        assert isinstance(v.certificate, MinEigCert)
        u = v.certificate.vector
        assert np.vdot(u, mat @ u).real == pytest.approx(v.certificate.value, abs=1e-12)
        assert v.certificate.value < -0.5

    def test_unknown_cone(self, identity_file):
        assert main(["check", identity_file, "nosuchcone"]) == 66

    @pytest.mark.parametrize("cone", ["psd", "sep", "cp", "f", "e", "blockpos"])
    def test_non_hermitian_rejected_by_every_gate(self, tmp_path, cone, capsys):
        # I + 0.5 (e01 - e10) at 2x2: the operator cones must not
        # symmetrize it away before their own Hermiticity gate
        x = np.eye(4, dtype=complex)
        x[0, 1], x[1, 0] = 0.5, -0.5
        path = tmp_path / "skew.json"
        save_matrix(path, 2, 2, x)
        assert main(["check", str(path), cone]) == 65
        assert "not Hermitian" in capsys.readouterr().err

    def test_solver_info_printed(self, fixture_file, tmp_path, capsys):
        assert main(["check", fixture_file, "pos"]) == 0
        out = capsys.readouterr().out
        assert "sweeps=" in out and "best=" in out and "restart=" not in out
        assert main(["check", fixture_file, "d"]) == 1
        out = capsys.readouterr().out
        for key in ("iterations=", "residual=", "stop=out", "lower=", "upper="):
            assert key in out, key
        mixed = tmp_path / "mixed.json"
        save_matrix(mixed, 3, 3, np.eye(9))
        assert main(["check", str(mixed), "sep"]) == 0
        out = capsys.readouterr().out
        assert "regime=dephased" in out and "separable decomposition of 9 terms" in out


class TestPairCommand:
    def test_identity_pairing_value(self, tmp_path, capsys):
        path = tmp_path / "id2.json"
        save_matrix(path, 2, 2, identity_map(2).choi)
        assert main(["pair", str(path), str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(4.0)

    def test_cp_samples_nonnegative(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["random", "cp", "3", "3", str(a), "--seed", "5"]) == 0
        assert main(["random", "cp", "3", "3", str(b), "--seed", "6"]) == 0
        capsys.readouterr()
        assert main(["pair", str(a), str(b)]) == 0
        assert float(capsys.readouterr().out.strip()) >= 0

    def test_dimension_mismatch(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_matrix(a, 2, 2, identity_map(2).choi)
        save_matrix(b, 3, 3, identity_map(3).choi)
        assert main(["pair", str(a), str(b)]) == 65


class TestWitnessCommand:
    def test_fixture_witness(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(["witness", fixture_file, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "violation" in text
        d, w = load_matrix(out)
        # emitted witness re-validates: PPT, unit trace, negative pairing
        assert in_F(w, d).status is Status.IN
        assert abs(np.trace(w).real - 1.0) <= 1e-9
        lam = nondecomposable_map()
        assert np.trace(w @ lam.choi).real < -1e-6

    def test_cp_map_none(self, identity_file, capsys):
        assert main(["witness", identity_file]) == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_decomposable_needs_one_feasibility_run(self, identity_file, capsys, monkeypatch):
        import mapcones.cones as cones_mod

        original = cones_mod.dykstra_feasibility
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cones_mod, "dykstra_feasibility", counting)
        assert main(["witness", identity_file]) == 1
        assert capsys.readouterr().out.strip() == "none"
        assert len(calls) == 1


class TestRandomCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["random", "cp", "3", "3", str(a), "--seed", "7"]) == 0
        assert main(["random", "cp", "3", "3", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_p_sample_round_trips_inside_the_cone(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["random", "p", "3", "3", str(path), "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["check", str(path), "p"]) == 0
        out = capsys.readouterr().out
        found = re.search(r"min eig (\S+), min eig after PT (\S+)", out)
        assert found, out
        _, c = load_matrix(path)
        band = 10 * 1e-9 * (1 + np.linalg.norm(c))
        assert float(found.group(1)) >= band
        assert float(found.group(2)) >= band

    def test_operator_cone_rejected(self, tmp_path):
        assert main(["random", "psd", "2", "2", str(tmp_path / "x.json")]) == 66
        assert main(["random", "nosuchcone", "2", "2", str(tmp_path / "x.json")]) == 66


class TestVerifyCommand:
    def test_l4_passes_json(self, capsys):
        assert main(["verify", "L4", "3", "3", "--trials", "5", "--seed", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "PASS"

    def test_markdown_format(self, capsys):
        assert main(["verify", "L15", "2", "2", "--trials", "5", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("# PASS: L15")

    def test_unknown_theorem(self):
        assert main(["verify", "T99", "2", "2"]) == 66

    def test_byte_identical_across_runs(self, capsys):
        assert main(["verify", "L8", "3", "3", "--trials", "6", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "L8", "3", "3", "--trials", "6", "--seed", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second


BAD_TOLS = ["nan", "inf", "0", "-1"]


class TestArgumentValues:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_check_rejects_tol(self, identity_file, tol, capsys):
        # nan once turned a PSD Choi matrix into OUT; -1 reached an internal error
        assert main(["check", identity_file, "cp", "--tol", tol]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol")

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_verify_rejects_tol(self, tol, capsys):
        assert main(["verify", "T6", "3", "3", "--trials", "2", "--tol", tol]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol")

    @pytest.mark.parametrize("command", ["pair", "witness"])
    def test_other_commands_reject_tol(self, identity_file, command, capsys):
        argv = [command, identity_file] + ([identity_file] if command == "pair" else [])
        assert main(argv + ["--tol", "nan"]) == 65
        assert capsys.readouterr().err.startswith("error: --tol")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_rejects_trials_below_one(self, trials, capsys):
        assert main(["verify", "T6", "3", "3", "--trials", trials]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials")

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    @pytest.mark.parametrize("cone", ["pos", "blockpos"])
    def test_check_rejects_restarts_below_one(self, fixture_file, cone, restarts, capsys):
        # once ran one restart and printed the count it was given
        assert main(["check", fixture_file, cone, "--restarts", restarts]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: restarts must be >= 1, got {restarts}\n"

    @pytest.mark.parametrize("command", ["verify", "random", "pos", "blockpos"])
    def test_negative_seed_rejected(self, fixture_file, tmp_path, command, capsys):
        # once numpy's bare "expected non-negative integer"
        out = tmp_path / "sample.json"
        argv = {
            "verify": ["verify", "L4", "2", "2", "--trials", "2"],
            "random": ["random", "cp", "2", "2", str(out)],
        }.get(command, ["check", fixture_file, command])
        assert main(argv + ["--seed", "-1"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_small_positive_tol_accepted(self, identity_file):
        assert main(["check", identity_file, "cp", "--tol", "1e-12"]) == 0


class TestUsageErrors:
    """argparse's usage errors exit 64, never 2, which means UNDECIDED."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["check"],
            ["nosuchcommand"],
            ["verify", "T1", "3", "3", "--trials", "x"],
            ["check", "FILE", "cp", "--bogus"],
            ["witness", "FILE", "--restarts", "3"],
            ["witness", "FILE", "--seed", "2"],
        ],
        ids=[
            "no-command",
            "missing-args",
            "unknown-command",
            "bad-int",
            "unknown-option",
            "witness-restarts",
            "witness-seed",
        ],
    )
    def test_usage_error_exits_64(self, identity_file, argv, capsys):
        assert main([identity_file if a == "FILE" else a for a in argv]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_process_exit_code(self):
        env = dict(os.environ)
        src = str(Path(cli_mod.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run([sys.executable, "-m", "mapcones.cli", "check"], env=env, capture_output=True)
        assert proc.returncode == 64

    def test_check_runs_the_restarts_it_is_given(self, fixture_file, capsys):
        # the default is 10, and a smaller count is no longer raised to 10
        assert main(["check", fixture_file, "pos"]) == 0
        assert "restarts=10;" in capsys.readouterr().out
        assert main(["check", fixture_file, "pos", "--restarts", "2"]) == 0
        assert "restarts=2;" in capsys.readouterr().out


class TestParserReuse:
    def test_parser_built_once(self, identity_file, monkeypatch):
        built = []
        real = cli_mod.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli_mod, "build_parser", counting)
        cli_mod._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["check", identity_file, "cp"]) == 0
            assert main(["verify", "L4", "2", "2", "--trials", "1"]) == 0
        finally:
            cli_mod._parser.cache_clear()
        assert len(built) == 1
