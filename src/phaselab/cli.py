"""Command-line front door.

Every subcommand writes a single file (JSON or CSV) to --out, defaulting to
stdout; its ``cmd_*`` function returns the file's text as an iterable of str.
Domain errors and a MemoryError are reported as a JSON envelope {"error", "detail"}
on stderr with exit code 1; usage errors exit with 2.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from collections.abc import Iterable

import numpy as np

from . import classical_fields as cf
from . import fock_core as fc
from . import linear_optics as lo
from . import nonclassicality as nc
from . import quasiprob_engine as qe
from . import theorem_lab as tl
from .errors import DomainError, MalformedFile, UnwritableOutput
from .phase_filters import FilterSpec, filter_from_json

DEFAULT_CUTOFF = 20
DEFAULT_GRID = "4:129"
DEFAULT_BETA_GRID = "6:128"
DEFAULT_SEED = 42


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


def _fmt_complex(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _finite_or_null(value: float) -> float | None:
    return value if np.isfinite(value) else None  # strict JSON has no Infinity or NaN


def _csv(header: list[str], rows) -> tuple[str]:
    lines = [",".join(header), *(",".join(f"{v:.15g}" for v in row) for row in rows)]
    return ("\n".join(lines) + "\n",)


def _json(payload, indent=None) -> tuple[str]:
    return (json.dumps(payload, indent=indent) + "\n",)


def _state_json(rho: fc.DensityMatrix) -> Iterable[str]:
    return itertools.chain(fc.state_json_chunks(rho), ("\n",))


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
    extent, points = args.beta_grid
    grid = qe.charfunc_grid(rho, f, extent, points)
    _, betas = qe.lattice(extent, points)
    values = grid.values.ravel()
    rows = zip(betas.real.ravel(), betas.imag.ravel(), values.real, values.imag)
    return _csv(["re_beta", "im_beta", "re_value", "im_value"], rows)


def cmd_quasiprob(args) -> Iterable[str]:
    rho = _load_state(args.state)
    f = _filter_from_args(args)
    b_extent, b_points = args.beta_grid
    a_extent, a_points = args.grid
    grid = qe.quasiprob_transform(
        qe.charfunc_grid(rho, f, b_extent, b_points), a_extent, a_points
    )
    _, alphas = qe.lattice(a_extent, a_points)
    rows = zip(alphas.real.ravel(), alphas.imag.ravel(), grid.values.ravel())
    return _csv(["re_alpha", "im_alpha", "value"], rows)


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
        v = tl.classify_filter_bs(f, trials=args.trials, seed=args.seed)
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
    if args.op == "beamsplit":
        out = cf.ensemble_beamsplit(ens, cf.BeamSplitterParams(args.t, args.r))
    elif args.op == "attenuate":
        out = cf.classical_attenuate(ens, args.t)
    else:  # moments
        val = cf.classical_moments(ens, args.m, args.n)
        return _json({"m": args.m, "n": args.n, **_fmt_complex(val)})
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
    p.add_argument("--beta-grid", type=_grid_arg, default=DEFAULT_BETA_GRID, help="extent:steps")

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
    p.add_argument("--trials", type=int, default=100, help="random probes for max_residual")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the random probes")

    p = sub.add_parser("classical", help="classical ensemble operations")
    p.add_argument("--op", choices=("beamsplit", "attenuate", "moments"), required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--t", type=_complex_arg, default="1")
    p.add_argument("--r", type=_complex_arg, default="0")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)

    for name in ("charfunc", "quasiprob", "verify"):
        sub.choices[name].add_argument("--s", type=float, default=0.0)
        sub.choices[name].add_argument("--filter", help="filter JSON file (overrides --s)")
    for name, p in sub.choices.items():
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        chunks = args.func(args)
        # a state file comes in chunks, written as they are made
        try:
            with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UnwritableOutput(f"{args.out or 'stdout'} cannot be written: {exc}") from None
    except (DomainError, MemoryError) as exc:
        json.dump({"error": getattr(exc, "name", "MemoryError"), "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
