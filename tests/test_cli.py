import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaselab
from phaselab import cli
from phaselab import fock_core as fc
from phaselab import linear_optics as lo

from _support import figure3_csv_per_eta


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, *argv):
    path = tmp_path / name
    code = cli.main(list(argv) + ["--out", str(path)])
    assert code == 0
    return str(path)


class TestStateCommand:
    def test_fock_roundtrip(self, capsys):
        code, out, err = run(capsys, "state", "--fock", "1", "--cutoff", "6")
        assert code == 0 and err == ""
        rho = fc.load_state(json.loads(out))
        assert rho.dim == 7
        assert rho.entries[1, 1] == 1.0

    def test_coherent_complex_argument(self, capsys):
        code, out, _ = run(capsys, "state", "--coherent", "0.5+0.2j")
        rho = fc.load_state(json.loads(out))
        assert code == 0
        assert abs(fc.normal_moment(rho, 0, 1) - (0.5 + 0.2j)) < 1e-10

    def test_domain_error_envelope(self, capsys):
        code, out, err = run(capsys, "state", "--fock", "9", "--cutoff", "4")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "CutoffTooSmall"
        assert payload["detail"]

    def test_out_file(self, tmp_path):
        path = write_state(tmp_path, "vac.json", "state", "--fock", "0")
        with open(path) as fh:
            assert fc.load_state(json.load(fh)).dim == 21

    @pytest.mark.parametrize("target", ["nodir/x.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_is_an_envelope(self, tmp_path, capsys, target):
        code, out, err = run(capsys, "state", "--fock", "1", "--out", str(tmp_path / target))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UnwritableOutput"
        assert str(tmp_path) in payload["detail"]


class TestInputBoundary:
    class ArrayMemoryError(MemoryError):
        """A MemoryError subclass, as numpy raises for an array it cannot allocate."""

    @pytest.mark.parametrize("exc", [MemoryError(), ArrayMemoryError("Unable to allocate 745. GiB")])
    def test_memory_error_is_an_envelope(self, capsys, monkeypatch, exc):
        # an input too large to allocate, raised without allocating it
        def too_large(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.nc, "figure3_data", too_large)
        code, out, err = run(capsys, "figure3", "--eta-steps", "100000000000")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "MemoryError", "detail": str(exc)}

    def test_attenuate_rejects_nan_eta(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        code, out, err = run(capsys, "attenuate", "--state", state, "--eta", "nan")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "GainNotAllowed"

    def test_state_file_must_validate(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        obj = json.loads(Path(state).read_text())
        obj["re"][1][1] = 2.0
        Path(state).write_text(json.dumps(obj))
        code, out, err = run(capsys, "report", "--state", state)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_non_finite_state_file(self, tmp_path, capsys):
        state = write_state(tmp_path, "vac.json", "state", "--fock", "0", "--cutoff", "6")
        obj = json.loads(Path(state).read_text())
        obj["re"][3][3] = float("nan")
        Path(state).write_text(json.dumps(obj))
        code, out, err = run(capsys, "report", "--state", state)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NonFiniteArgument"

    @pytest.mark.parametrize(
        "field, value",
        [("leakage", -0.5), ("leakage", 7.0), ("leakage", True), ("dim", 5.7), ("n_modes", True)],
    )
    def test_invalid_state_field(self, tmp_path, capsys, field, value):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1", "--cutoff", "4")
        obj = json.loads(Path(state).read_text())
        obj[field] = value
        Path(state).write_text(json.dumps(obj))
        for argv in (["report", "--state", state], ["attenuate", "--eta", "0.5", "--state", state]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "MalformedFile"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["verify", "--theorem", "2", "--s", "nan"], None),
            (["quasiprob", "--s", "nan", "--state"], "state"),
            (["verify", "--theorem", "2", "--filter"],
             '{"coeffs": [{"k": 1, "l": 1, "re": NaN}]}'),
            (["verify", "--theorem", "1", "--trials", "2", "--filter"],
             '{"coeffs": [{"k": 2, "l": 0, "re": 0.1, "im": Infinity}]}'),
        ],
        ids=["verify-s", "quasiprob-s", "filter-nan", "filter-inf"],
    )
    def test_non_finite_filter(self, tmp_path, capsys, argv, text):
        if text == "state":
            argv = argv + [write_state(tmp_path, "one.json", "state", "--fock", "1")]
        elif text is not None:
            path = tmp_path / "filter.json"
            path.write_text(text)
            argv = argv + [str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NonFiniteArgument"

    def test_imaginary_residue(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"coeffs": [{"k": 1, "l": 1, "re": -0.3, "im": 0.0},
                                               {"k": 2, "l": 0, "re": 0.0, "im": 0.05}]}))
        code, out, err = run(capsys, "quasiprob", "--state", state, "--filter", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ImaginaryResidue"

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--state", "{missing}"],
            ["beamsplit", "--t", "0.6", "--r", "0.8", "--state1", "{missing}", "--state2", "{ok}"],
            ["beamsplit", "--t", "0.6", "--r", "0.8", "--state1", "{ok}", "--state2", "{missing}"],
            ["classical", "--op", "moments", "--ensemble", "{missing}"],
            ["verify", "--theorem", "2", "--filter", "{missing}"],
            ["report", "--state", "{dir}"],
            ["report", "--state", "{binary}"],
        ],
        ids=["state", "state1", "state2", "ensemble", "filter", "directory", "not_utf8"],
    )
    def test_unreadable_file(self, tmp_path, capsys, argv):
        (tmp_path / "binary.json").write_bytes(b'{"dim": \xff}')
        paths = {
            "{missing}": str(tmp_path / "missing.json"),
            "{ok}": write_state(tmp_path, "ok.json", "state", "--fock", "0", "--cutoff", "4"),
            "{dir}": str(tmp_path),
            "{binary}": str(tmp_path / "binary.json"),
        }
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "MalformedFile" and "cannot be read" in payload["detail"]

    @pytest.mark.parametrize(
        "field, error", [("re", "NonFiniteArgument"), ("w", "InvalidWeights")]
    )
    def test_non_finite_ensemble_file(self, tmp_path, capsys, field, error):
        sample = {"re": 1.0, "im": 0.0, "w": 1.0, field: float("nan")}
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"samples": [sample]}))
        code, out, err = run(capsys, "classical", "--op", "moments", "--ensemble", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["quasiprob", "--grid", "4:1"],
            ["quasiprob", "--beta-grid", "0:128"],
            ["state", "--coherent", "1+0.5i"],
            ["attenuate", "--eta", "0.5", "--cutoff", "3"],
            ["quasiprob", "--seed", "9"],
        ],
    )
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv):
        if argv[0] != "state":
            argv = argv + ["--state", write_state(tmp_path, "one.json", "state", "--fock", "1")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["report", "--state"], '{"dim": 2, "re": [[1, 0], [0, 0]]}'),
            (["report", "--state"], "[1, 2]"),
            (["report", "--state"], '{"dim": 2,'),
            (["classical", "--op", "moments", "--ensemble"], '{"amplitudes": [[1.0]]}'),
            (["classical", "--op", "moments", "--ensemble"], '{"samples": [{"re": 1.0}]}'),
            (["verify", "--theorem", "1", "--trials", "2", "--filter"], '{"coeffs": [{"k": 1}]}'),
            (["verify", "--theorem", "1", "--trials", "2", "--filter"],
             '{"coeffs": [{"k": "a", "l": 1}]}'),
            (["report", "--state"], '"x"'),
            (["classical", "--op", "moments", "--ensemble"], '"x"'),
            (["verify", "--theorem", "1", "--trials", "2", "--filter"], '"x"'),
            # numbers must be JSON numbers of the right kind, never bools or strings
            (["report", "--state"], '{"dim": 1, "re": [[1]], "im": [[0]], "leakage": "0"}'),
            (["verify", "--theorem", "2", "--filter"], '{"s": true}'),
            (["verify", "--theorem", "2", "--filter"], '{"s": "0.5"}'),
            (["verify", "--theorem", "2", "--filter"], '{"coeffs": [{"k": 1.7, "l": 0, "re": 1}]}'),
            (["verify", "--theorem", "2", "--filter"], '{"coeffs": [{"k": true, "l": 0, "re": 1}]}'),
            (["verify", "--theorem", "2", "--filter"], '{"coeffs": [{"k": 2, "l": 0, "re": true}]}'),
            (["verify", "--theorem", "2", "--filter"],
             '{"s": 1, "coeffs": [{"k": 2, "l": 0, "re": 0.1}]}'),
            (["verify", "--theorem", "2", "--filter"], "{}"),
            (["classical", "--op", "moments", "--ensemble"],
             '{"n_modes": 3, "samples": [{"re": 1.0, "im": 0.0, "w": 1.0}]}'),
            (["classical", "--op", "moments", "--ensemble"],
             '{"samples": [{"re": 1.0, "im": 0.0, "w": "1"}]}'),
            (["classical", "--op", "moments", "--ensemble"],
             '{"samples": [{"re": 1.0, "im": 0.0, "w": true}]}'),
            (["classical", "--op", "moments", "--ensemble"],
             '{"samples": [{"re": true, "im": 0.0, "w": 1.0}]}'),
        ],
    )
    def test_malformed_file(self, tmp_path, capsys, argv, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "MalformedFile"

    def test_module_hook(self):
        src = str(Path(phaselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "phaselab.cli", "state", "--fock", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert fc.load_state(json.loads(proc.stdout)).entries[1, 1] == 1.0


class TestNumpyOnly:
    """numpy is the only runtime dependency: scipy serves the tests as an oracle only."""

    def python(self, code, cwd):
        src = str(Path(phaselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=120)

    def test_import_loads_no_scipy(self, tmp_path):
        code = "import sys, phaselab.cli; print([m for m in sys.modules if 'scipy' in m])"
        proc = self.python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        ensemble = {"samples": [{"re": 1.0, "im": 0.5, "w": 1.0}]}
        (tmp_path / "ens.json").write_text(json.dumps(ensemble))
        commands = [
            "state --coherent 1 --out c.json", "state --fock 1 --out f.json",
            "figure3 --eta-steps 5", "report --state c.json", "attenuate --state c.json --eta 0.5",
            "charfunc --state f.json", "quasiprob --state f.json",
            "beamsplit --state1 f.json --state2 c.json --t 0.6 --r 0.8",
            "verify --theorem 1", "verify --theorem 2",
            "classical --op moments --ensemble ens.json",
        ]
        script = f"""
import sys
sys.modules["scipy"] = None  # every import of scipy now fails
from phaselab import cli
for argv in {commands!r}:
    assert cli.main(argv.split() + ([] if "--out" in argv else ["--out", "out.txt"])) == 0, argv
"""
        proc = self.python(script, tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr


class TestPipelines:
    def test_attenuate_then_report(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        att = tmp_path / "att.json"
        assert cli.main(
            ["attenuate", "--state", state, "--eta", "0.5", "--out", str(att)]
        ) == 0
        code, out, _ = run(capsys, "report", "--state", str(att))
        assert code == 0
        payload = json.loads(out)
        assert payload["g1"] == pytest.approx(0.5, abs=1e-12)
        assert payload["g2"] == pytest.approx(0.0, abs=1e-12)
        assert payload["verdict"] == "VIOLATED"
        assert any(v["criterion"] == "G2_ge_G1sq" for v in payload["violations"])

    def test_report_negative_max_order(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        code, out, err = run(capsys, "report", "--state", state, "--max-order", "-1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidWeights"

    def test_beamsplit_trace(self, tmp_path, capsys):
        s1 = write_state(tmp_path, "a.json", "state", "--coherent", "0.4", "--cutoff", "7")
        s2 = write_state(tmp_path, "b.json", "state", "--fock", "0", "--cutoff", "7")
        sq2 = f"{1 / np.sqrt(2):.17g}"
        code, out, _ = run(
            capsys, "beamsplit", "--state1", s1, "--state2", s2, "--t", sq2, "--r", sq2
        )
        assert code == 0
        rho = fc.load_state(json.loads(out))
        assert rho.n_modes == 2
        assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n, cutoff", [(1, 1), (2, 3), (3, 5)])
    def test_beamsplit_past_cutoff_is_an_error(self, tmp_path, capsys, n, cutoff):
        # Hong-Ou-Mandel: a 50:50 splitter sends |n, n> to |2n, 0> and |0, 2n>
        state = write_state(
            tmp_path, "n.json", "state", "--fock", str(n), "--cutoff", str(cutoff)
        )
        sq2 = f"{1 / np.sqrt(2):.17g}"
        code, out, err = run(
            capsys, "beamsplit", "--state1", state, "--state2", state, "--t", sq2, "--r", sq2
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CutoffTooSmall"

    def test_quasiprob_csv_origin(self, tmp_path, capsys):
        state = write_state(tmp_path, "vac.json", "state", "--fock", "0")
        code, out, _ = run(
            capsys, "quasiprob", "--state", state, "--grid", "2:41", "--beta-grid", "6:128"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re_alpha,im_alpha,value"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        origin = min(rows, key=lambda r: r[0] ** 2 + r[1] ** 2)
        assert origin[2] == pytest.approx(2 / np.pi, abs=1e-6)

    def test_singular_p_function_error(self, tmp_path, capsys):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        code, out, err = run(capsys, "quasiprob", "--state", state, "--s", "1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "SingularPFunction"

    def test_charfunc_csv(self, tmp_path, capsys):
        state = write_state(tmp_path, "vac.json", "state", "--fock", "0")
        code, out, _ = run(capsys, "charfunc", "--state", state, "--beta-grid", "2:9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re_beta,im_beta,re_value,im_value"
        assert len(lines) == 1 + 81


class TestStateFiles:
    @pytest.mark.parametrize(
        "argv, rho",
        [
            (["--fock", "1"], fc.make_fock(1, 20)),
            (["--coherent", "0.7-0.2j", "--cutoff", "15"], fc.make_coherent(0.7 - 0.2j, 15)),
            (["--thermal", "0.3", "--cutoff", "30"], fc.make_thermal(0.3, 30)),
        ],
    )
    def test_state_is_json_dumps(self, capsys, argv, rho):
        code, out, _ = run(capsys, "state", *argv)
        assert code == 0
        assert out == json.dumps(fc.save_state(rho)) + "\n"

    def test_attenuate_is_json_dumps(self, tmp_path):
        state = write_state(tmp_path, "a.json", "state", "--coherent", "0.6+0.5j")
        out = write_state(tmp_path, "att.json", "attenuate", "--state", state, "--eta", "0.37")
        want = lo.attenuate(fc.load_state(json.loads(Path(state).read_text())), 0.37)
        assert Path(out).read_text() == json.dumps(fc.save_state(want)) + "\n"

    def test_beamsplit_output_is_hermitian(self, tmp_path):
        s1 = write_state(tmp_path, "a.json", "state", "--coherent", "0.8", "--cutoff", "12")
        s2 = write_state(tmp_path, "b.json", "state", "--thermal", "0.1", "--cutoff", "12")
        out = write_state(
            tmp_path, "q.json", "beamsplit", "--state1", s1, "--state2", s2,
            "--t", "0.6", "--r", "0.8j",
        )
        text = Path(out).read_text()
        rho = fc.load_state(json.loads(text))
        assert np.array_equal(rho.entries, rho.entries.conj().T)
        assert text == json.dumps(fc.save_state(rho)) + "\n"


class TestParser:
    def test_calls_share_no_state(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        assert cli.main(["state", "--fock", "1", "--out", str(path)]) == 0
        code, out, err = run(capsys, "figure3", "--eta-steps", "3")
        assert code == 0 and err == ""
        assert out.startswith("eta,") and len(out.splitlines()) == 4
        assert fc.load_state(json.loads(path.read_text())).entries[1, 1] == 1.0
        args = cli.build_parser().parse_args(["figure3", "--eta-steps", "3"])
        assert args.out is None and not hasattr(args, "fock")
        assert cli.build_parser() is cli.build_parser()


class TestFigure3:
    def test_three_rows(self, capsys):
        code, out, _ = run(capsys, "figure3", "--eta-steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        for (eta, num, ana, gap), target in zip(rows, [2 / np.pi, 0.0, -2 / np.pi]):
            assert ana == pytest.approx(target, abs=1e-12)
            assert num == pytest.approx(target, abs=1e-14)
            assert gap == pytest.approx(-(eta**2), abs=1e-12)

    @pytest.mark.parametrize("eta_steps", [3, 101, 1001])
    def test_csv_matches_per_eta_loop(self, capsys, eta_steps):
        # the stacked sweep against one attenuate, two normal_moment and one
        # quasiprob_pointwise call per efficiency, byte for byte
        for cutoff in range(6, 25):
            code, out, _ = run(capsys, "figure3", "--eta-steps", str(eta_steps),
                               "--cutoff", str(cutoff))
            assert code == 0
            assert out == figure3_csv_per_eta(eta_steps, cutoff)


class TestVerify:
    def test_theorem1_covariant(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "1", "--s", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "COVARIANT"
        assert payload["s"] == 0.5
        assert payload["witness"] is None

    def test_theorem1_witnessed(self, tmp_path, capsys):
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"coeffs": [{"k": 2, "l": 0, "re": 0.3, "im": 0.0}]}))
        code, out, _ = run(capsys, "verify", "--theorem", "1", "--filter", str(spec))
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "NOT_COVARIANT"
        assert payload["witness"]["residual"] > 1e-10
        assert payload["reason"].startswith("the c_20 bracket")

    @pytest.mark.parametrize("s", ["3", "400", "-60"])
    def test_theorem1_large_s_covariant(self, capsys, s):
        code, out, err = run(capsys, "verify", "--theorem", "1", "--s", s)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["verdict"] == "COVARIANT" and payload["s"] == float(s)
        assert payload["witness"] is None
        assert payload["max_residual"] <= 1e-13

    def test_theorem1_complex_c11_reason(self, tmp_path, capsys):
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"coeffs": [{"k": 1, "l": 1, "re": 0.5, "im": 1e-16}]}))
        code, out, _ = run(capsys, "verify", "--theorem", "1", "--filter", str(spec))
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "NOT_COVARIANT" and payload["witness"] is None
        assert "c_11 = (0.5+1e-16j)" in payload["reason"] and "not real" in payload["reason"]

    def test_theorem2_overflow_is_null(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "2", "--s", "400")

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0 and err == ""
        assert payload["verdict"] == "NOT_CLASSICAL"
        assert payload["max_residual"] is None

    def test_theorem2_p_function_spellings(self, tmp_path, capsys):
        spec = tmp_path / "filter.json"
        spec.write_text(json.dumps({"coeffs": [{"k": 1, "l": 1, "re": 0.5}]}))
        code, by_s, _ = run(capsys, "verify", "--theorem", "2", "--s", "1")
        assert code == 0
        code, by_file, _ = run(capsys, "verify", "--theorem", "2", "--filter", str(spec))
        assert code == 0 and by_file == by_s
        assert json.loads(by_s)["max_residual"] == 0.0

    def test_theorem2_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--s", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "CLASSICAL_ATTENUATION"
        assert payload["max_residual"] <= 1e-14

    def test_theorem2_not_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--s", "0")
        assert json.loads(out)["verdict"] == "NOT_CLASSICAL"


class TestOverflowingFilter:
    """A filter whose exponent overflows on the lattice or the probes: a characteristic
    function that is not finite is an error, a verdict reads it as an infinite residual,
    and neither prints a warning (the suite turns warnings into errors)."""

    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"coeffs": [{"k": 2, "l": 0, "re": 1e308}]}))
        return str(path)

    @pytest.mark.parametrize("command", ["charfunc", "quasiprob"])
    @pytest.mark.parametrize("filter_args", ["huge", ["--s", "30"]], ids=["c20-1e308", "s30"])
    def test_charfunc_and_quasiprob_fail(self, tmp_path, capsys, huge, command, filter_args):
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        if filter_args == "huge":
            filter_args = ["--filter", huge]
        code, out, err = run(capsys, command, "--state", state, *filter_args)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NonFiniteArgument"

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_verify_reads_an_infinite_residual(self, capsys, huge, theorem):
        code, out, err = run(capsys, "verify", "--theorem", theorem, "--filter", huge)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["verdict"] == ("NOT_COVARIANT" if theorem == "1" else "NOT_CLASSICAL")
        assert payload["max_residual"] is None
        w = payload["witness"]
        if theorem == "1":
            assert w["residual"] is None
        else:
            from phaselab.phase_filters import FilterSpec

            beta = complex(w["re"], w["im"])
            z = FilterSpec.general({(2, 0): 1e308}).exponent(beta) - abs(beta) ** 2 / 2
            assert not (np.isfinite(z) and z.real <= np.log(np.finfo(float).max))


class TestClassical:
    def write_ensemble(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(
            json.dumps(
                {
                    "samples": [
                        {"re": 1.0, "im": 0.0, "w": 0.5},
                        {"re": 0.0, "im": 2.0, "w": 0.5},
                    ]
                }
            )
        )
        return str(path)

    def test_moments(self, tmp_path, capsys):
        ens = self.write_ensemble(tmp_path)
        code, out, _ = run(
            capsys, "classical", "--op", "moments", "--ensemble", ens, "--m", "1", "--n", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["re"] == pytest.approx(2.5)

    def test_negative_moment_order(self, tmp_path, capsys):
        # a zero amplitude to the power -1 was inf, and the moment NaN
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"samples": [{"re": 0.0, "im": 0.0, "w": 1.0}]}))
        code, out, err = run(
            capsys, "classical", "--op", "moments", "--ensemble", str(path), "--m", "-1", "--n", "0"
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidWeights"

    def test_attenuate_halves_intensity(self, tmp_path, capsys):
        ens = self.write_ensemble(tmp_path)
        code, out, _ = run(
            capsys,
            "classical", "--op", "attenuate", "--ensemble", ens,
            "--t", f"{1 / np.sqrt(2):.17g}",
        )
        assert code == 0
        from phaselab.classical_fields import classical_moments, load_ensemble

        after = load_ensemble(json.loads(out))
        assert classical_moments(after, 1, 1).real == pytest.approx(1.25)
