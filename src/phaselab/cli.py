"""Command-line front door.

Every subcommand writes a single file (JSON or CSV) to --out, defaulting to
stdout; its ``cmd_*`` function returns the file's text as an iterable of str.
Domain errors and a MemoryError are reported as a JSON envelope {"error", "detail"}
on stderr with exit code 1, and a regular --out file that the failed write cut off is
removed; usage errors exit with 2.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterable

import numpy as np

from . import classical_fields as cf
from . import fock_core as fc
from . import linear_optics as lo
from . import nonclassicality as nc
from . import quasiprob_engine as qe
from . import theorem_lab as tl
from ._state_text import state_json_chunks
from .errors import DomainError, MalformedFile, UnwritableOutput
from .phase_filters import FilterSpec, filter_from_json

DEFAULT_CUTOFF = 20
DEFAULT_GRID = "4:129"
DEFAULT_BETA_GRID = "6:128"
DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
# flags that a mode does not read, so that giving one is a usage error; the flags that a
# mode reads default to None, and its cmd_* function supplies the value
UNREAD_FLAGS = {
    "verify --theorem 2": ("trials", "seed"),
    "classical --op beamsplit": ("m", "n"),
    "classical --op attenuate": ("r", "m", "n"),
    "classical --op moments": ("t", "r"),
}


def _grid_arg(spec: str) -> tuple[float, int]:
    """argparse type for ``extent:steps`` with extent > 0 and steps >= 2."""
    try:
        extent, steps = spec.split(":")
        extent, steps = float(extent), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not extent:steps") from None
    if not 0 < extent < float("inf") or steps < 2:
        raise argparse.ArgumentTypeError(f"{spec!r} needs extent > 0 and steps >= 2")
    return extent, steps


def _complex_arg(text: str) -> complex:
    """argparse type for a finite complex number such as 1+0.5j."""
    try:
        value = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a complex number") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path} cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not JSON: {exc}") from None


def _load_state(path: str) -> fc.DensityMatrix:
    return fc.load_state(_read_json(path))


def _filter_from_args(args) -> FilterSpec:
    if args.filter:
        return filter_from_json(_read_json(args.filter))
    return FilterSpec.s_param(args.s)


def _or(value, default):
    """A flag's value, or its default when it was not given."""
    return default if value is None else value


def _fmt_complex(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _finite_or_null(value: float) -> float | None:
    return value if np.isfinite(value) else None  # strict JSON has no Infinity or NaN


def _csv(header: list[str], rows) -> tuple[str]:
    fmt = ",".join(["%.15g"] * len(header))
    lines = [",".join(header), *(fmt % tuple(row) for row in rows)]
    return ("\n".join(lines) + "\n",)


def _lattice_csv(header: list[str], axis, *columns) -> tuple[str]:
    """CSV rows (Re, Im, *columns) over the square lattice of ``axis``, in its values' order."""
    x, y = np.meshgrid(axis, axis)
    return _csv(header, np.column_stack([x.ravel(), y.ravel(), *columns]).tolist())


def _json(payload, indent=None) -> tuple[str]:
    return (json.dumps(payload, indent=indent) + "\n",)


def _state_json(rho: fc.DensityMatrix) -> Iterable[str]:
    return itertools.chain(state_json_chunks(rho), ("\n",))


def cmd_state(args) -> Iterable[str]:
    if args.fock is not None:
        rho = fc.make_fock(args.fock, args.cutoff)
    elif args.coherent is not None:
        rho = fc.make_coherent(args.coherent, args.cutoff)
    else:  # the argument group is required: --thermal
        rho = fc.make_thermal(args.thermal, args.cutoff)
    return _state_json(rho)


def cmd_charfunc(args) -> Iterable[str]:
    rho = _load_state(args.state)
    f = _filter_from_args(args)
    grid = qe.charfunc_grid(rho, f, *args.beta_grid)
    v = grid.values.ravel()
    return _lattice_csv(["re_beta", "im_beta", "re_value", "im_value"], grid.axis, v.real, v.imag)


def cmd_quasiprob(args) -> Iterable[str]:
    rho = _load_state(args.state)
    f = _filter_from_args(args)
    grid = qe.quasiprob_transform(qe.charfunc_grid(rho, f, *args.beta_grid), *args.grid)
    return _lattice_csv(["re_alpha", "im_alpha", "value"], grid.axis, grid.values.ravel())


def cmd_beamsplit(args) -> Iterable[str]:
    rho1 = _load_state(args.state1)
    rho2 = _load_state(args.state2)
    bs = cf.BeamSplitterParams(args.t, args.r)
    return _state_json(lo.apply_beamsplitter(fc.tensor(rho1, rho2), bs))


def cmd_attenuate(args) -> Iterable[str]:
    return _state_json(lo.attenuate(_load_state(args.state), args.eta))


def cmd_report(args) -> Iterable[str]:
    rho = _load_state(args.state)
    rep = nc.correlation_report(rho, args.max_order)
    payload = {
        "g1": rep.g1,
        "g2": rep.g2,
        "verdict": rep.g2_verdict,
        "moments": [
            {"m": m, "n": n, **_fmt_complex(v)} for (m, n), v in sorted(rep.gmn_table.items())
        ],
        "violations": [
            {"criterion": cid, "lhs": lhs, "rhs": rhs, "verdict": v}
            for cid, lhs, rhs, v in rep.violations
        ],
    }
    return _json(payload, indent=2)


def cmd_figure3(args) -> Iterable[str]:
    rows = nc.figure3_data(args.eta_steps, cutoff=args.cutoff)
    return _csv(
        ["eta", "wigner_origin_numeric", "wigner_origin_analytic", "g2_minus_g1sq"], rows
    )


def cmd_verify(args) -> Iterable[str]:
    f = _filter_from_args(args)
    if args.theorem == 1:
        trials, seed = _or(args.trials, DEFAULT_TRIALS), _or(args.seed, DEFAULT_SEED)
        v = tl.classify_filter_bs(f, trials=trials, seed=seed)
        witness = None
        if v.witness is not None:
            bs, b3, b4, res = v.witness
            witness = {
                "t": _fmt_complex(bs.t),
                "r": _fmt_complex(bs.r),
                "beta3": _fmt_complex(b3),
                "beta4": _fmt_complex(b4),
                "residual": _finite_or_null(res),
            }
        payload = {
            "theorem": 1,
            "filter": f.describe(),
            "verdict": v.verdict,
            "s": v.s,
            "witness": witness,
            "max_residual": _finite_or_null(v.max_residual),
            "reason": v.reason,
        }
    else:
        v = tl.classify_filter_attenuator(f, tl.disk_grid())
        payload = {
            "theorem": 2,
            "filter": f.describe(),
            "verdict": v.verdict,
            "witness": None if v.witness_beta is None else _fmt_complex(v.witness_beta),
            "max_residual": _finite_or_null(v.max_deviation),
        }
    return _json(payload, indent=2)


def cmd_classical(args) -> Iterable[str]:
    ens = cf.load_ensemble(_read_json(args.ensemble))
    t, r, m, n = _or(args.t, 1), _or(args.r, 0), _or(args.m, 1), _or(args.n, 1)
    if args.op == "beamsplit":
        out = cf.ensemble_beamsplit(ens, cf.BeamSplitterParams(t, r))
    elif args.op == "attenuate":
        out = cf.classical_attenuate(ens, t)
    else:  # moments
        val = cf.classical_moments(ens, m, n)
        return _json({"m": m, "n": n, **_fmt_complex(val)})
    return _json(cf.save_ensemble(out))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-space toolbox for classical and quantum light.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a state and write it as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fock", type=int)
    group.add_argument("--coherent", type=_complex_arg, help="complex amplitude, e.g. 1+0.5j")
    group.add_argument("--thermal", type=float, help="mean occupation")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)

    p = sub.add_parser("charfunc", help="characteristic-function lattice as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--beta-grid", type=_grid_arg, default=DEFAULT_BETA_GRID, help="extent:steps")

    p = sub.add_parser("quasiprob", help="quasiprobability grid as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--grid", type=_grid_arg, default=DEFAULT_GRID, help="alpha extent:steps")
    p.add_argument("--beta-grid", type=_grid_arg, default=DEFAULT_BETA_GRID,
                   help="extent:steps; the lattice is sampled only for s > 0 or a series "
                   "filter, s <= 0 is evaluated exactly from the state")

    p = sub.add_parser("beamsplit", help="apply a beam splitter to two states")
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.add_argument("--t", type=_complex_arg, required=True)
    p.add_argument("--r", type=_complex_arg, required=True)

    p = sub.add_parser("attenuate", help="apply the loss channel")
    p.add_argument("--state", required=True)
    p.add_argument("--eta", type=float, required=True)

    p = sub.add_parser("report", help="correlation report as JSON")
    p.add_argument("--state", required=True)
    p.add_argument("--max-order", type=int, default=2)

    p = sub.add_parser("figure3", help="attenuated-photon curve data as CSV")
    p.add_argument("--eta-steps", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)

    p = sub.add_parser("verify", help="run a covariance verification suite")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, help="theorem 1: random probes for max_residual, "
                   f"{DEFAULT_TRIALS} if not given")
    p.add_argument("--seed", type=int, help="theorem 1: seed of the random probes, "
                   f"{DEFAULT_SEED} if not given")

    p = sub.add_parser("classical", help="classical ensemble operations")
    p.add_argument("--op", choices=("beamsplit", "attenuate", "moments"), required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--t", type=_complex_arg, help="beamsplit, attenuate: 1 if not given")
    p.add_argument("--r", type=_complex_arg, help="beamsplit: 0 if not given")
    p.add_argument("--m", type=int, help="moments: 1 if not given")
    p.add_argument("--n", type=int, help="moments: 1 if not given")

    for name in ("charfunc", "quasiprob", "verify"):
        group = sub.choices[name].add_mutually_exclusive_group()
        group.add_argument("--s", type=float, default=0.0)
        group.add_argument("--filter", help="filter JSON file (instead of --s)")
    for name, p in sub.choices.items():
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to the file out, or to stdout, each as it comes (a state file's are
    made while earlier ones are written).

    When the write fails once out is open, a regular file out is removed, so that no cut-off
    file is left behind the error; a device such as /dev/full or a FIFO is left as it is."""
    try:
        if not out:
            sys.stdout.writelines(chunks)
            return
        fh = open(out, "w")
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):
                    os.remove(out)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"{out or 'stdout'} cannot be written: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mode = " ".join([args.command, *(f"--{k} {getattr(args, k)}" for k in ("theorem", "op")
                                     if hasattr(args, k))])
    unread = [f"--{flag}" for flag in UNREAD_FLAGS.get(mode, ()) if getattr(args, flag) is not None]
    if unread:
        parser.error(f"{mode} does not read {', '.join(unread)}")
    try:
        _write(args.func(args), args.out)
    except (DomainError, MemoryError) as exc:
        json.dump({"error": getattr(exc, "name", "MemoryError"), "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
