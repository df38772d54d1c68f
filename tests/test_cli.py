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


class TestInputBoundary:
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
        assert json.loads(err)["error"] == "DimensionMismatch"

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

    def test_module_hook(self):
        src = str(Path(phaselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "phaselab.cli", "state", "--fock", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert fc.load_state(json.loads(proc.stdout)).entries[1, 1] == 1.0


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


class TestFigure3:
    def test_three_rows(self, capsys):
        code, out, _ = run(capsys, "figure3", "--eta-steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        for (eta, num, ana, gap), target in zip(rows, [2 / np.pi, 0.0, -2 / np.pi]):
            assert ana == pytest.approx(target, abs=1e-12)
            assert num == pytest.approx(target, abs=1e-6)
            assert gap == pytest.approx(-(eta**2), abs=1e-12)


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

    def test_theorem2_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--s", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "CLASSICAL_ATTENUATION"
        assert payload["max_residual"] <= 1e-14

    def test_theorem2_not_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--s", "0")
        assert json.loads(out)["verdict"] == "NOT_CLASSICAL"


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
