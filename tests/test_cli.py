import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab
from phaselab import _state_text as stx
from phaselab import classical_fields as cf
from phaselab import cli
from phaselab import fock_core as fc
from phaselab import linear_optics as lo
from phaselab import quasiprob_engine as qe
from phaselab.phase_filters import FilterSpec

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


class TestCutOffOutput:
    """A write that fails once --out is open leaves no partial file behind its envelope;
    a FIFO or a device is left as it is."""

    def test_failed_second_part_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the im part's table is built inline before the re part's, so its error is raised
        # before any text is made; the file that was opened for it is removed
        calls, table = [], stx.record_table

        def im_fails(mags):
            calls.append(mags.size)
            if len(calls) == 1:
                raise MemoryError("Unable to allocate the table")
            return table(mags)

        monkeypatch.setattr(stx, "record_table", im_fails)
        path = tmp_path / "a.json"
        code, out, err = run(capsys, "state", "--coherent", "0.8", "--out", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "MemoryError", "detail": "Unable to allocate the table"}
        assert not path.exists()

    def test_worker_error_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the im part of this output is dense, and its table is filled on the worker thread
        state = write_state(tmp_path, "a.json", "state", "--coherent", "0.8")
        caller, table = threading.get_ident(), stx.record_table

        def worker_fails(mags):
            if threading.get_ident() != caller:
                raise MemoryError("Unable to allocate the table")
            return table(mags)

        monkeypatch.setattr(stx, "record_table", worker_fails)
        path = tmp_path / "q.json"
        code, out, err = run(capsys, "beamsplit", "--state1", state, "--state2", state,
                             "--t", "0.6", "--r", "0.8j", "--out", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "MemoryError", "detail": "Unable to allocate the table"}
        assert not path.exists()

    @pytest.mark.skipif(os.name != "posix", reason="needs RLIMIT_FSIZE")
    def test_full_disk_leaves_no_file(self, tmp_path):
        # a file size limit of 16 KiB makes a 75 kB state file's write fail with EFBIG
        script = """
import resource, signal, sys
from phaselab import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 14, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""
        src = str(Path(phaselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["state", "--coherent", "0.8+0.3j", "--cutoff", "40", "--out", "a.json"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stderr)
        assert payload["error"] == "UnwritableOutput" and "File too large" in payload["detail"]
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_left_in_place(self, tmp_path, capsys):
        # a dense two-mode write fails at its first slab of rows, mostly while the worker
        # thread still fills the im part's table
        state = write_state(tmp_path, "a.json", "state", "--coherent", "0.8")
        code, out, err = run(capsys, "beamsplit", "--state1", state, "--state2", state,
                             "--t", "0.6", "--r", "0.8j", "--out", "/dev/full")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "UnwritableOutput"
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_is_left_in_place(self, tmp_path, capsys):
        # the reader takes 100 bytes of a 160 kB state file and closes its end
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def read_a_little():
            with open(fifo, "rb", buffering=0) as fh:
                fh.read(100)

        reader = threading.Thread(target=read_a_little, daemon=True)
        reader.start()
        code, out, err = run(capsys, "state", "--coherent", "0.8+0.3j", "--cutoff", "60",
                             "--out", str(fifo))
        reader.join(timeout=60)
        assert not reader.is_alive() and code == 1 and out == ""
        assert json.loads(err)["error"] == "UnwritableOutput"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


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

    def test_state_file_must_be_positive(self, tmp_path, capsys):
        # unit trace and Hermitian, with an eigenvalue of -0.5: only the positivity flag
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"dim": 2, "re": [[1.5, 0.0], [0.0, -0.5]],
                                    "im": [[0.0, 0.0], [0.0, 0.0]]}))
        code, out, err = run(capsys, "report", "--state", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "DimensionMismatch",
                                   "detail": "state fails validation: ('positivity',)"}

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

    def test_state_file_that_is_not_json(self, tmp_path, capsys):
        # without its own message, a file that json cannot parse reads as a state record of
        # None: "not a state record: TypeError: 'NoneType' object is not subscriptable"
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 5,')
        code, out, err = run(capsys, "report", "--state", str(path))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "MalformedFile"
        assert payload["detail"].startswith(f"{path} is not JSON: ")

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
            ["quasiprob", "--grid", "4:1", "--state", "{state}"],
            ["quasiprob", "--beta-grid", "0:128", "--state", "{state}"],
            ["state", "--coherent", "1+0.5i"],
            ["attenuate", "--eta", "0.5", "--cutoff", "3", "--state", "{state}"],
            ["quasiprob", "--seed", "9", "--state", "{state}"],
            ["quasiprob", "--grid", "4", "--state", "{state}"],
            ["classical", "--op", "attenuate", "--ensemble", "{ensemble}", "--t", "inf"],
            ["charfunc", "--s", "0", "--filter", "{filter}", "--state", "{state}"],
            ["quasiprob", "--filter", "{filter}", "--s", "0.0", "--state", "{state}"],
            ["verify", "--theorem", "2", "--s", "0", "--filter", "{filter}"],
            ["verify", "--theorem", "2", "--s", "0.0", "--filter", "{filter}"],
            # a flag that the chosen mode does not read
            ["verify", "--theorem", "2", "--s", "0", "--trials", "3"],
            ["verify", "--theorem", "2", "--s", "0", "--seed", "9"],
            ["classical", "--op", "beamsplit", "--ensemble", "{ensemble2}", "--m", "2"],
            ["classical", "--op", "beamsplit", "--ensemble", "{ensemble2}", "--n", "2"],
            ["classical", "--op", "attenuate", "--ensemble", "{ensemble}", "--t", "0.5",
             "--r", "7"],
            ["classical", "--op", "attenuate", "--ensemble", "{ensemble}", "--m", "1"],
            ["classical", "--op", "attenuate", "--ensemble", "{ensemble}", "--n", "1"],
            ["classical", "--op", "moments", "--ensemble", "{ensemble}", "--t", "0.5"],
            ["classical", "--op", "moments", "--ensemble", "{ensemble}", "--r", "0"],
        ],
    )
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv):
        # every file exists, so without the usage error each command would run
        (tmp_path / "p.json").write_text('{"s": 1}')
        (tmp_path / "ens.json").write_text('{"samples": [{"re": 1.0, "im": 0.0, "w": 1.0}]}')
        (tmp_path / "ens2.json").write_text('{"n_modes": 2, "samples": [{"re1": 1.0, "im1": 0.0, '
                                            '"re2": 0.0, "im2": 1.0, "w": 1.0}]}')
        paths = {
            "{state}": write_state(tmp_path, "one.json", "state", "--fock", "1"),
            "{filter}": str(tmp_path / "p.json"),
            "{ensemble}": str(tmp_path / "ens.json"),
            "{ensemble2}": str(tmp_path / "ens2.json"),
        }
        argv = [paths.get(a, a) for a in argv]
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

    def test_import_loads_no_concurrent_futures(self, tmp_path):
        # it imports logging; the state writer imports it when it makes its worker
        code = "import sys, phaselab.cli; print('concurrent.futures' in sys.modules)"
        proc = self.python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        ensemble = {"samples": [{"re": 1.0, "im": 0.5, "w": 1.0}]}
        (tmp_path / "ens.json").write_text(json.dumps(ensemble))
        commands = [
            "state --coherent 1 --out c.json", "state --fock 1 --out f.json",
            "figure3 --eta-steps 5", "report --state c.json", "attenuate --state c.json --eta 0.5",
            "charfunc --state f.json", "quasiprob --state f.json",
            "quasiprob --state c.json --s -0.5",
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

    def test_quasiprob_of_coherent_state(self, tmp_path, capsys):
        # the Wigner grid of |1> on the default lattices, answered from the state file: within
        # its leakage bound (2/pi)(2 sqrt(eps) + 2 eps) of (2/pi) e^{-2|alpha - 1|^2}
        state = write_state(tmp_path, "c1.json", "state", "--coherent", "1")
        code, out, err = run(capsys, "quasiprob", "--state", state)
        assert code == 0 and err == ""
        d = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
        assert len(d) == 129**2
        eps = fc.load_state(Path(state).read_text()).leakage
        want = 2 / np.pi * np.exp(-2 * ((d[:, 0] - 1) ** 2 + d[:, 1] ** 2))
        assert np.max(np.abs(d[:, 2] - want)) <= 2 / np.pi * (2 * np.sqrt(eps) + 2 * eps)

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

    @pytest.mark.parametrize("argv, phi, tol", [
        (["--fock", "1"], lambda b: np.exp(-abs(b) ** 2 / 2) * (1 - abs(b) ** 2), 1e-12),
        # within the leakage bound 2 sqrt(eps) + 2 eps of the untruncated state
        (["--coherent", "1"], lambda b: np.exp(-abs(b) ** 2 / 2 + b - b.conj()), None),
        (["--coherent", "1.2", "--cutoff", "30"],
         lambda b: np.exp(-abs(b) ** 2 / 2 + 1.2 * (b - b.conj())), 1e-10),
    ], ids=["fock1", "coherent1", "coherent1.2-cutoff30"])
    def test_charfunc_of_closed_form_states(self, tmp_path, capsys, argv, phi, tol):
        # on the default 128^2 beta lattice, out to its corners
        state = write_state(tmp_path, "s.json", "state", *argv)
        code, out, err = run(capsys, "charfunc", "--state", state)
        assert code == 0 and err == ""
        d = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
        assert len(d) == 128**2
        if tol is None:
            eps = fc.load_state(Path(state).read_text()).leakage
            tol = 2 * np.sqrt(eps) + 2 * eps
        assert np.max(np.abs(d[:, 2] + 1j * d[:, 3] - phi(d[:, 0] + 1j * d[:, 1]))) <= tol


    @pytest.mark.parametrize("argv, grid", [
        (["quasiprob", "--grid", "4:100"], lambda rho: qe.quasiprob_transform(
            qe.charfunc_grid(rho, FilterSpec()), 4.0, 100)),
        (["charfunc", "--beta-grid", "6:128"], lambda rho: qe.charfunc_grid(
            rho, FilterSpec(), 6.0, 128)),
    ], ids=["quasiprob", "charfunc"])
    def test_csv_coordinates_are_the_grid_axis(self, tmp_path, capsys, argv, grid):
        # sizes where linspace is not antisymmetric: the coordinates are the axis the
        # values were computed on, and each row's negative is the mirror row
        state = write_state(tmp_path, "one.json", "state", "--fock", "1")
        code, out, _ = run(capsys, *argv, "--state", state)
        assert code == 0
        coords = [ln.split(",")[:2] for ln in out.strip().split("\n")[1:]]
        axis = grid(fc.make_fock(1, cli.DEFAULT_CUTOFF)).axis
        x, y = np.meshgrid(axis, axis)
        assert coords == [[f"{a:.15g}", f"{b:.15g}"] for a, b in zip(x.ravel(), y.ravel())]
        values = np.array(coords, dtype=float)
        assert np.array_equal(values[::-1], -values)


# every float, with -0.0, subnormals and 1e16 (where %.15g turns to exponent form) drawn often
CSV_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e16, -1e16, 1e16 + 2])


class TestCsvRows:
    @given(rows=st.lists(st.lists(CSV_FLOATS, min_size=3, max_size=3), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_per_value_join(self, rows):
        # one %-format per row gives the text of one f-string per value, for Python floats
        # (figure3's rows) and numpy scalars (the lattice columns)
        header = ["a", "b", "c"]
        (got,) = cli._csv(header, rows)
        assert got == "\n".join([",".join(header), *(",".join(f"{v:.15g}" for v in row)
                                                     for row in rows)]) + "\n"
        axis = np.array([r[0] for r in rows])
        columns = np.array([r[1:] for r in rows] * len(rows)).reshape(-1, 2).T
        x, y = np.meshgrid(axis, axis)
        (got,) = cli._lattice_csv(header + ["d"], axis, *columns)
        want = [",".join(f"{v:.15g}" for v in row) for row in zip(x.ravel(), y.ravel(), *columns)]
        assert got == "\n".join(["a,b,c,d", *want]) + "\n"


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

    def test_columns_match_closed_forms(self, capsys):
        # the paper's figure 3 at its 101 efficiencies: the Wigner origin against
        # (2/pi)(1 - 2 eta), positive below eta = 1/2 and negative above, and
        # g2 - g1^2 = -eta^2
        code, out, _ = run(capsys, "figure3", "--eta-steps", "101")
        assert code == 0
        eta, num, ana, gap = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1).T
        assert np.max(np.abs(eta - np.linspace(0.0, 1.0, 101))) <= 1e-15
        assert np.max(np.abs(num - ana)) < 1e-14 and np.max(np.abs(gap + eta**2)) < 1e-12
        assert (num[eta < 0.5] > 0).all() and (num[eta > 0.5] < 0).all()

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

    def test_theorem1_negative_seed_is_an_envelope(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "1", "--seed", "-1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidWeights"

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

    def test_quasiprob_far_out_fails(self, tmp_path, capsys):
        # the band rows of 31 levels overflow on the 1e6:5 alpha lattice
        state = write_state(tmp_path, "c30.json", "state", "--coherent", "1", "--cutoff", "30")
        code, out, err = run(capsys, "quasiprob", "--state", state, "--grid", "1000000:5")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NonFiniteArgument"

    def test_quasiprob_far_below_zero(self, tmp_path, capsys):
        # P_s tends to 2 / (pi (1-s)) for a state of unit trace as s -> -inf
        state = write_state(tmp_path, "c1.json", "state", "--coherent", "1")
        code, out, err = run(capsys, "quasiprob", "--state", state, "--s=-1e200")
        assert code == 0 and err == ""
        d = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
        assert len(d) == 129**2
        assert np.max(np.abs(d[:, 2] / (2 / (np.pi * (1 + 1e200))) - 1)) <= 1e-13

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

    def test_beamsplit_writes_the_ensemble_image(self, tmp_path, capsys):
        ens = cf.ClassicalEnsemble.two_mode([(1.0, 0.5j, 0.25), (-0.3 + 0.2j, 2.0, 0.75)])
        path = tmp_path / "ens2.json"
        path.write_text(json.dumps(cf.save_ensemble(ens)))
        code, out, _ = run(
            capsys,
            "classical", "--op", "beamsplit", "--ensemble", str(path), "--t", "0.6", "--r", "0.8j",
        )
        want = cf.save_ensemble(cf.ensemble_beamsplit(ens, cf.BeamSplitterParams(0.6, 0.8j)))
        assert code == 0 and want["n_modes"] == 2
        assert out == json.dumps(want) + "\n"

    def test_attenuate_full_loss_gives_the_origin(self, tmp_path, capsys):
        # a sample at -1 + 0.5i scaled by 0j is -0.0 + 0j; the file holds the origin itself
        ens = tmp_path / "ens.json"
        ens.write_text('{"samples": [{"re": -1.0, "im": 0.5, "w": 0.5}, '
                       '{"re": 0.0, "im": -2.0, "w": 0.5}]}')
        out = write_state(tmp_path, "lost.json", "classical", "--op", "attenuate",
                          "--ensemble", str(ens), "--t", "0")
        origin = {"re": 0.0, "im": 0.0, "w": 0.5}
        assert Path(out).read_text() == json.dumps({"samples": [origin, origin]}) + "\n"

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
