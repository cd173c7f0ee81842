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
dimension of AW gives the same member as q = n. Every residual, and those
`decompose` appends, comes from the residual layer of `matrix`, which the
conformance runner reads too: ‖lhs - rhs‖ / max(1, ‖rhs‖), and a
reconstruction against max(1, sigma_max) of the matrix it rebuilds.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 domain error
(overflow on badly scaled input included), 5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

from numpy.linalg import matrix_power

import geninv

from . import matrix
from .classical import _index_search, check_q
from .errors import (DecompositionError, DomainError, NumericError,
                     ParseError, ShapeError)
from .io import format_matrix, load_matrix
from .projectors import _Factored
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


def _resolve_tolerance(args) -> matrix.Tolerances | None:
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
    return matrix.Tolerances(residual_atol=value)


# --------------------------------------------------------------------------
# inverse command


def _residuals(spec: Kind, a, w, x, q, pair: WeightedPair | None = None) -> dict[str, float]:
    """Residuals of the kind's defining system on either arithmetic, read
    from the residual layer of `matrix`: this picks the system, its order k
    and, for a Penrose system, the operand B = W A W P_{(AW)^k}.

    A square kind is its weighted form with W absent (w is None). A float
    weighted kind passes the WeightedPair it was computed from, whose k is
    the order of an "index" system.
    """
    if spec.system == "core":
        return matrix.core_residuals(a, x)
    exact = a.dtype == object
    if exact:
        from . import exact as ex
    aw = a if w is None else a @ w
    k = check_q(q, aw.shape[0]) if spec.order == "q" else spec.order
    if k == "index" and pair is not None:
        k = pair.k
    elif k == "index" and exact:
        k = ex.exact_index(a) if w is None else ex.exact_pair_index(a, w)[2]
    elif k == "index":
        k = _index_search(_Factored(a))[0]
    if spec.system == "drazin":
        return matrix.drazin_residuals(a, x, k, w)
    b = a if w is None else w @ aw
    if k and exact:
        b = b @ ex.exact_proj_range(ex.exact_power(aw, k))
    elif k:
        s = _Factored(a).sigma_max if pair is None else pair.sigma_max_a * pair.sigma_max_w
        b = b @ _Factored(matrix_power(aw, k)).proj_range(scale=s ** k)
    return matrix.penrose_residuals(b, x)


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
        header = f"rank = {d.rank}\nindex = {d.index}"
        blocks = {"U": d.u, "T": d.t, "S": d.s, "N": d.nil}
        residuals = {
            "reconstruction": matrix.rel(d.compose(), a, d.sigma_max),
            "unitarity": matrix.unitarity(d.u),
            "nilpotency": matrix.nilpotency(d.nil, d.index, d.sigma_max),
        }
    else:
        w, _ = load_matrix(args.w)
        pair = WeightedPair.from_matrices(a, w)
        d = weighted_core_ep_decompose(pair, tol)
        header = f"t = {d.t_dim}\nind_aw = {d.ind_aw}\nind_wa = {d.ind_wa}"
        blocks = {"U": d.u, "V": d.v, "A1": d.a1, "A2": d.a2, "A3": d.a3,
                  "W1": d.w1, "W2": d.w2, "W3": d.w3}
        sa, sw = d.sigma_max_a, d.sigma_max_w
        residuals = {
            "reconstruction_a": matrix.rel(d.compose_a(), pair.a, sa),
            "reconstruction_w": matrix.rel(d.compose_w(), pair.w, sw),
            "unitarity_u": matrix.unitarity(d.u),
            "unitarity_v": matrix.unitarity(d.v),
            "nilpotency_aw": matrix.nilpotency(d.a3 @ d.w3, d.ind_aw, sa * sw),
            "nilpotency_wa": matrix.nilpotency(d.w3 @ d.a3, d.ind_wa, sa * sw),
        }
    print(header)
    for label, block in blocks.items():
        print(f"{label}:\n{format_matrix(block, fmt) or '(empty)'}")
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
                handle.write(report.to_json() + "\n")
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
