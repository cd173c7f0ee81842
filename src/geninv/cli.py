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
dimension of AW gives the same member as q = n, and a q >= 2 is checked at
min(q, index), where the routines clamp it. Every residual comes from the
residual layer of `matrix`, which the conformance runner reads too:
‖lhs - rhs‖ / max(1, ‖rhs‖), and a reconstruction against
max(1, sigma_max) of the matrix it rebuilds. `decompose` appends the
decomposition's own `residuals`, the values the runner reads.

Exit codes: 0 success, 1 stdout closed before the output was written
(a process started through `run` only), 2 usage error, 3 parse error,
4 domain error (overflow on badly scaled input included), 5 verification
failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import NamedTuple, NoReturn

import geninv

from . import matrix
from .classical import check_q
from .errors import (DecompositionError, DomainError, NumericError,
                     ParseError, ShapeError)
from .io import format_matrix, load_matrix
from .projectors import _Operand, _power_projector
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
    the index. An order q >= 2 is clamped at the index, as the routines
    clamp it: past the index the rank of the power would be decided
    against sigma_max^q, which cond^q outgrows, and a right inverse would
    be reported as wrong. A float square kind reads that index off the
    staircase its routine searched, kept by the operand memo, so it
    searches nothing itself; the projector onto R(A^k) is still formed from
    the full-size power, a route apart from that staircase. An exact Penrose
    system searches Ind(AW) only: R((AW)^k) is fixed from k = Ind(AW) on.
    """
    if spec.system == "core":
        return matrix.core_residuals(a, x)
    exact = a.dtype == object
    if exact:
        from . import exact as ex
    aw = a if w is None else a @ w
    # a float A, validated by the routine: the thin SVD and the searched
    # staircase that routine took, read from the operand memo, serve its index
    # and its scale with no SVD
    fa = None if exact else _Operand(a)
    k = check_q(q, aw.shape[0]) if spec.order == "q" else spec.order
    if k == "index" or (spec.order == "q" and k >= 2):
        last = None if k == "index" else k
        if pair is not None:
            k = pair.k
        elif exact and w is not None and spec.system == "drazin":
            k = ex.exact_pair_index(a, w)[2]
        elif exact:
            k = ex.exact_index(aw)
        else:
            k = fa.staircase().search((aw.shape[0] if last is None else last) + 1)
        k = k if last is None else min(last, k)
    if spec.system == "drazin":
        return matrix.drazin_residuals(a, x, k, w)
    b = a if w is None else w @ aw
    if k and exact:
        b = b @ ex.exact_proj_range(ex.exact_power(aw, k))
    elif k:
        s = fa.sigma_max if pair is None else pair.sigma_max_a * pair.sigma_max_w
        b = b @ _power_projector(aw, k, s)
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
        residuals = d.residuals(a)
    else:
        w, _ = load_matrix(args.w)
        pair = WeightedPair.from_matrices(a, w)
        d = weighted_core_ep_decompose(pair, tol)
        header = f"t = {d.t_dim}\nind_aw = {d.ind_aw}\nind_wa = {d.ind_wa}"
        blocks = {"U": d.u, "V": d.v, "A1": d.a1, "A2": d.a2, "A3": d.a3,
                  "W1": d.w1, "W2": d.w2, "W3": d.w3}
        residuals = d.residuals(pair.a, pair.w)
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


def run() -> NoReturn:
    """Run `main` on the process's arguments and exit with its code: the
    one entry of `python -m geninv`, `python -m geninv.cli` and the
    `geninv` console script.

    The heap the imports made (numpy's modules, this package's float path)
    is frozen first, so the cyclic collector never walks it again: not in
    the collections a call triggers, such as a JSON parse's, and not in the
    ones at interpreter exit, which walked all of it on every call. What a
    call allocates is still collected. `main` never freezes: in a test run
    or a library caller's process, which goes on after the call, a freeze
    would keep every object then alive, garbage cycles included, out of
    every later collection.

    A reader that closes stdout early (`geninv pinv a.csv | head -c 1`)
    makes the process exit 1 with nothing on stderr: stdout is flushed
    here, and on a broken pipe it is pointed at the null device, so the
    flush at interpreter exit has nowhere to fail.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
