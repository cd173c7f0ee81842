"""Command-line interface.

Subcommands: one per inverse kind in `KINDS`, `decompose` for the block
decompositions, and `verify` for the conformance suites. Matrices are
read from CSV or JSON files and results are written to stdout in the
input's format.

`--verify` appends the residuals of the kind's defining system: penrose1-4
of B = W A W P_{(AW)^q} for every q-BT member (pinv, bt, qbt, core-ep and
their weighted forms; a square kind is its weighted form with W absent),
outer/commute/chain for drazin, group and wdrazin, and
outer/hermitian_left/chain for core. `--exact` residuals are computed
exactly, so a correct result prints 0.000000e+00. Any q at or above the
dimension of AW gives the same member as q = n.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 domain error
(overflow on badly scaled input included), 5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

import numpy as np
from numpy.linalg import matrix_power

import geninv

from .classical import check_q
from .errors import (DecompositionError, DomainError, NumericError,
                     ParseError, ShapeError)
from .io import format_matrix, load_matrix
from .matrix import Tolerances, frobenius
from .projectors import _Factored, _power_search
from .weighted import WeightedPair


class Kind(NamedTuple):
    """One inverse kind: the names of its routine on each path and its
    defining system, checked at `order`: 0, 1, "q" (the --q value) or
    "index" (Ind(A), or max(Ind(AW), Ind(WA))). Both routines take q after
    the matrices when `order` is "q"; the float one takes a WeightedPair for
    a weighted kind. Each name is looked up on the geninv package when the
    kind runs, so the exact path loads only for --exact."""

    help: str
    inverse: str
    exact: str
    system: str
    order: int | str
    weighted: bool = False


KINDS = {
    "pinv": Kind("Moore-Penrose inverse", "pinv", "exact_pinv", "penrose", 0),
    "drazin": Kind("Drazin inverse", "drazin", "exact_drazin", "drazin", "index"),
    "group": Kind("group inverse (index at most 1)", "group_inverse", "exact_group",
                  "drazin", 1),
    "core": Kind("core inverse (index at most 1)", "core_inverse", "exact_core", "core", 1),
    "core-ep": Kind("core-EP inverse", "core_ep", "exact_core_ep", "penrose", "index"),
    "bt": Kind("BT inverse", "bt_inverse", "exact_bt", "penrose", 1),
    "qbt": Kind("q-BT inverse", "qbt_inverse", "exact_qbt", "penrose", "q"),
    "wdrazin": Kind("W-weighted Drazin inverse", "weighted_drazin",
                    "exact_weighted_drazin", "drazin", "index", weighted=True),
    "wcore-ep": Kind("W-weighted core-EP inverse", "weighted_core_ep",
                     "exact_weighted_core_ep", "penrose", "index", weighted=True),
    "wbt": Kind("W-weighted BT inverse", "weighted_bt", "exact_weighted_bt",
                "penrose", 1, weighted=True),
    "wqbt": Kind("W-weighted q-BT inverse", "weighted_qbt", "exact_weighted_qbt",
                 "penrose", "q", weighted=True),
}


class UsageError(Exception):
    """A post-parse command-line usage problem (exit code 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geninv",
        description="Generalized matrix inverses over CSV/JSON matrix files.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for kind, spec in KINDS.items():
        p = sub.add_parser(kind, help=spec.help)
        p.add_argument("a", help="matrix file (CSV or JSON)")
        if spec.weighted:
            p.add_argument("w", help="weight matrix file (CSV or JSON)")
        if spec.order == "q":
            p.add_argument("--q", type=int, required=True,
                           help="exponent of the range projector (q >= 0)")
        p.add_argument("--exact", action="store_true",
                       help="compute on the exact rational path")
        p.add_argument("--verify", action="store_true",
                       help="append residuals of the defining equations")

    dec = sub.add_parser("decompose", help="block decompositions")
    dec.add_argument("kind", choices=("core-ep", "weighted-core-ep"))
    dec.add_argument("a", help="matrix file (CSV or JSON)")
    dec.add_argument("w", nargs="?", default=None,
                     help="weight matrix file (required for weighted-core-ep)")
    dec.add_argument("--tol", type=float, default=None,
                     help="residual tolerance of weighted-core-ep (overrides GENINV_TOL)")

    ver = sub.add_parser("verify", help="run the conformance checks")
    ver.add_argument("scope", choices=("examples", "corpus", "all"))
    ver.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    ver.add_argument("--count", type=int, default=100,
                     help="number of corpus pairs (default 100)")
    ver.add_argument("--max-dim", type=int, default=8,
                     help="largest matrix dimension in the corpus (default 8)")
    ver.add_argument("--json", metavar="PATH", default=None,
                     help="also write the report as JSON to PATH")
    ver.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (overrides GENINV_TOL)")
    return parser


def _resolve_tolerance(args) -> Tolerances | None:
    value = args.tol
    if value is None:
        env = os.environ.get("GENINV_TOL")
        if env is not None and env.strip():
            try:
                value = float(env)
            except ValueError:
                raise UsageError(f"GENINV_TOL is not a number: {env!r}") from None
    if value is None:
        return None
    if not math.isfinite(value) or value <= 0:
        raise UsageError(f"tolerance must be a positive finite number, got {value}")
    return Tolerances(residual_atol=value)


# --------------------------------------------------------------------------
# inverse command


def _rel(x: np.ndarray, y: np.ndarray) -> float:
    """|x - y| / max(1, |y|); exact matrices are subtracted before rounding."""
    d = x - y
    if d.dtype == object:
        from .exact import float_of

        d, y = float_of(d), float_of(y)
    return frobenius(d) / max(1.0, frobenius(y))


def _index(b: np.ndarray) -> int:
    """Ind(B) of a matrix a public routine already validated."""
    return len(_power_search(_Factored(b), b.shape[0] + 1).ranks) - 2


def _residuals(spec: Kind, a, w, x, q, pair: WeightedPair | None = None) -> dict[str, float]:
    """Residuals of the kind's defining system on either arithmetic.

    A square kind is its weighted form with W absent (w is None). A float
    weighted kind passes the WeightedPair it was computed from, whose k is
    the order of an "index" system.
    """
    exact = a.dtype == object
    if exact:
        from . import exact as ex
    if spec.system == "core":
        ax = a @ x
        return {
            "outer": _rel(x @ a @ x, x),
            "hermitian_left": _rel(ax.conj().T, ax),
            "chain": _rel(x @ a @ a, a),
        }
    aw = a if w is None else a @ w
    waw = a if w is None else w @ aw
    k = check_q(q, aw.shape[0]) if spec.order == "q" else spec.order
    if k == "index" and pair is not None:
        k = pair.k
    elif k == "index":
        index = ex.exact_index if exact else _index
        k = index(a) if w is None else max(index(aw), index(w @ a))
    pw = ex.exact_power if exact else matrix_power
    if spec.system == "drazin":
        xw = x if w is None else x @ w
        return {
            "outer": _rel(x @ waw @ x, x),
            "commute": _rel(aw @ x, xw @ a),
            "chain": _rel(xw @ pw(aw, k + 1), pw(aw, k)),
        }
    b = waw
    if k and exact:
        b = waw @ ex.exact_proj_range(pw(aw, k))
    elif k:
        s = _Factored(a).sigma_max if pair is None else pair.sigma_max_a * pair.sigma_max_w
        b = waw @ _Factored(pw(aw, k)).proj_range(scale=s ** k)
    bx = b @ x
    xb = x @ b
    return {
        "penrose1": _rel(b @ xb, b),
        "penrose2": _rel(x @ bx, x),
        "penrose3": _rel(bx.conj().T, bx),
        "penrose4": _rel(xb.conj().T, xb),
    }


def _cmd_inverse(args) -> int:
    spec = KINDS[args.command]
    q = getattr(args, "q", None)
    if q is not None and q < 0:
        raise UsageError(f"--q must be nonnegative, got {q}")
    qarg = [q] if spec.order == "q" else []
    a, fmt = load_matrix(args.a, exact=args.exact)
    w = load_matrix(args.w, exact=args.exact)[0] if spec.weighted else None
    pair = None
    if args.exact:
        routine = getattr(geninv, spec.exact)
        result = routine(a, *qarg) if w is None else routine(a, w, *qarg)
    else:
        if w is not None:
            pair = WeightedPair.from_matrices(a, w)
        result = getattr(geninv, spec.inverse)(a if pair is None else pair, *qarg)
    print(format_matrix(result, fmt))
    if args.verify:
        print()
        for name, value in _residuals(spec, a, w, result, q, pair).items():
            print(f"residual {name} = {value:.6e}")
    return 0


# --------------------------------------------------------------------------
# decompose command


def _print_block(label: str, block: np.ndarray, fmt: str) -> None:
    print(f"{label}:")
    text = format_matrix(np.asarray(block), fmt)
    print(text if text else "(empty)")


def _cmd_decompose(args) -> int:
    from .decomposition import core_ep_decompose, weighted_core_ep_decompose

    # only the weighted decomposition's structure checks read the tolerance
    if args.kind == "core-ep" and args.tol is not None:
        raise UsageError("--tol is read only by decompose weighted-core-ep")
    tol = _resolve_tolerance(args) if args.kind == "weighted-core-ep" else None
    if args.kind == "weighted-core-ep" and args.w is None:
        raise UsageError("decompose weighted-core-ep requires a weight matrix file")
    if args.kind == "core-ep" and args.w is not None:
        raise UsageError("decompose core-ep takes a single matrix file")
    a, fmt = load_matrix(args.a)
    if args.kind == "core-ep":
        d = core_ep_decompose(a)
        print(f"rank = {d.rank}")
        print(f"index = {d.index}")
        for label, block in (("U", d.u), ("T", d.t), ("S", d.s), ("N", d.nil)):
            _print_block(label, block, fmt)
        eye = np.eye(d.u.shape[0])
        nil_pow = matrix_power(d.nil, d.index) if d.nil.size else d.nil
        residuals = {
            "reconstruction": _rel(d.compose(), a),
            "unitarity": frobenius(d.u.conj().T @ d.u - eye),
            "nilpotency": frobenius(nil_pow) / max(1.0, d.sigma_max ** max(d.index, 1)),
        }
    else:
        w, _ = load_matrix(args.w)
        pair = WeightedPair.from_matrices(a, w)
        d = weighted_core_ep_decompose(pair, tol)
        print(f"t = {d.t_dim}")
        print(f"ind_aw = {d.ind_aw}")
        print(f"ind_wa = {d.ind_wa}")
        blocks = (("U", d.u), ("V", d.v), ("A1", d.a1), ("A2", d.a2),
                  ("A3", d.a3), ("W1", d.w1), ("W2", d.w2), ("W3", d.w3))
        for label, block in blocks:
            _print_block(label, block, fmt)
        sa, sw = pair.sigma_max_a, pair.sigma_max_w
        residuals = {
            "reconstruction_a": _rel(d.compose_a(), pair.a),
            "reconstruction_w": _rel(d.compose_w(), pair.w),
            "unitarity_u": frobenius(d.u.conj().T @ d.u - np.eye(d.u.shape[0])),
            "unitarity_v": frobenius(d.v.conj().T @ d.v - np.eye(d.v.shape[0])),
            "nilpotency_aw": frobenius(matrix_power(d.a3 @ d.w3, d.ind_aw))
            / max(1.0, (sa * sw) ** d.ind_aw),
            "nilpotency_wa": frobenius(matrix_power(d.w3 @ d.a3, d.ind_wa))
            / max(1.0, (sw * sa) ** d.ind_wa),
        }
    print()
    for name, value in residuals.items():
        print(f"residual {name} = {value:.6e}")
    return 0


# --------------------------------------------------------------------------
# verify command


def _cmd_verify(args) -> int:
    # imported here: the conformance runner is only loaded when it runs
    from .verify import run_all, run_example_checks, run_random_corpus

    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.max_dim < 2:
        raise UsageError(f"--max-dim must be >= 2, got {args.max_dim}")
    tol = _resolve_tolerance(args)
    if args.scope == "examples":
        report = run_example_checks(tol)
    elif args.scope == "corpus":
        report = run_random_corpus(args.seed, args.count, args.max_dim, tol)
    else:
        report = run_all(args.seed, args.count, args.max_dim, tol)
    print(report.to_text())
    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.json}: {exc.strerror or exc}") from exc
    return 0 if report.passed else 5


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        return _cmd_inverse(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ShapeError, NumericError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        print(f"error: overflow on badly scaled input: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
