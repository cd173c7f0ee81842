"""Output checks computed apart from geninv.

Float results are checked with numpy alone: Penrose equations of the
operand B with B's range projector built from numpy's SVD, the Drazin and
core equations, reconstruction and unitarity of decompositions, and
agreement between two routes. Exact results are checked in
`fractions.Fraction` arithmetic. CLI output is parsed with `complex` and
`Fraction`, not with geninv.io. `self_test` shows that every checker
accepts a true answer and rejects a perturbed one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from inputs import integer_pair, integer_square, planted_pair, planted_square

# Relative residual of a defining equation. Results of the planted inputs
# sit near 1e-14; an answer perturbed by 1e-2 of its norm sits above 1e-5.
TOL = 1e-9
# Relative gap between two routes to the same inverse (criterion 5's bound).
ROUTE_TOL = 1e-8
# The benchmark's own rank rule: singular values above RANK_RTOL * sigma_max.
# Planted inputs keep a gap of many orders around this cutoff.
RANK_RTOL = 1e-8
# Number of checks registered with the conformance runner, and of those
# the reference-pair checks.
CONFORMANCE_CHECKS = 54
EXAMPLE_CHECKS = 15


def _fro(x) -> float:
    return float(np.linalg.norm(x))


def _rel(residual, scale: float) -> float:
    r = _fro(residual)
    return r / scale if scale > 0 else r


def pinv(m: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(m, rtol=RANK_RTOL)


def projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of m, from numpy's SVD."""
    u, s, _ = np.linalg.svd(m)
    r = int(np.count_nonzero(s > RANK_RTOL * s[0])) if s.size else 0
    return u[:, :r] @ u[:, :r].conj().T


def qbt_operand(a: np.ndarray, q: int) -> np.ndarray:
    """B = A P_{A^q}, whose pseudoinverse is the q-BT inverse."""
    return a @ projector(np.linalg.matrix_power(a, q))


def wqbt_operand(a: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    """B = W A W P_{(AW)^q}, whose pseudoinverse is the W-weighted q-BT inverse."""
    return w @ a @ w @ projector(np.linalg.matrix_power(a @ w, q))


def penrose(b: np.ndarray, x: np.ndarray) -> float:
    """Worst relative residual of BXB = B, XBX = X, (BX)* = BX, (XB)* = XB."""
    nb, nx = _fro(b), _fro(x)
    bx, xb = b @ x, x @ b
    return max(_rel(bx @ b - b, nb * nb * nx), _rel(x @ bx - x, nx * nx * nb),
               _rel(bx - bx.conj().T, nb * nx), _rel(xb - xb.conj().T, nb * nx))


def agreement(x: np.ndarray, ref: np.ndarray) -> float:
    """Relative gap ||X - ref|| / ||ref||."""
    return _rel(x - ref, _fro(ref))


def drazin(a: np.ndarray, x: np.ndarray, k: int) -> float:
    """XAX = X, AX = XA, X A^{k+1} = A^k."""
    na, nx = _fro(a), _fro(x)
    ak = np.linalg.matrix_power(a, k)
    ak1 = ak @ a
    return max(_rel(x @ a @ x - x, nx * nx * na), _rel(a @ x - x @ a, na * nx),
               _rel(x @ ak1 - ak, nx * _fro(ak1) + _fro(ak)))


def core_inverse(a: np.ndarray, x: np.ndarray) -> float:
    """XAX = X, (AX)* = AX, X A^2 = A."""
    na, nx = _fro(a), _fro(x)
    ax = a @ x
    return max(_rel(x @ ax - x, nx * nx * na), _rel(ax - ax.conj().T, na * nx),
               _rel(x @ a @ a - a, nx * na * na + na))


def weighted_drazin(a: np.ndarray, w: np.ndarray, x: np.ndarray, k: int) -> float:
    """X WAW X = X, AW X = X WA, X W (AW)^{k+1} = (AW)^k."""
    aw, wa = a @ w, w @ a
    waw = w @ aw
    nx = _fro(x)
    awk = np.linalg.matrix_power(aw, k)
    awk1 = awk @ aw
    return max(_rel(x @ waw @ x - x, nx * nx * _fro(waw)),
               _rel(aw @ x - x @ wa, nx * (_fro(aw) + _fro(wa))),
               _rel(x @ w @ awk1 - awk, nx * _fro(w) * _fro(awk1) + _fro(awk)))


def _unitarity(u: np.ndarray) -> float:
    n = u.shape[0]
    return _fro(u.conj().T @ u - np.eye(n)) / np.sqrt(max(n, 1))


def core_ep_decomposition(a, u, t_blk, s_blk, nil, k: int) -> float:
    """A = U [[T, S], [0, N]] U* with U unitary and N^k = 0."""
    r = t_blk.shape[0]
    mid = np.block([[t_blk, s_blk], [np.zeros((nil.shape[0], r)), nil]])
    na = _fro(a)
    nil_k = np.linalg.matrix_power(nil, k) if nil.size else nil
    return max(_rel(u @ mid @ u.conj().T - a, na), _unitarity(u),
               _rel(nil_k, max(1.0, na) ** max(k, 1)))


def weighted_decomposition(a, w, u, v, blocks) -> float:
    """A = U [[A1, A2], [0, A3]] V*, W = V [[W1, W2], [0, W3]] U*, U and V unitary."""
    a1, a2, a3, w1, w2, w3 = blocks
    t = a1.shape[0]
    a_mid = np.block([[a1, a2], [np.zeros((a3.shape[0], t)), a3]])
    w_mid = np.block([[w1, w2], [np.zeros((w3.shape[0], t)), w3]])
    return max(_rel(u @ a_mid @ v.conj().T - a, _fro(a)),
               _rel(v @ w_mid @ u.conj().T - w, _fro(w)),
               _unitarity(u), _unitarity(v))


def conformance(report, expected: int) -> str | None:
    """None when the report holds `expected` distinct checks, all passed."""
    ids = [r.check_id for r in report.results]
    if len(ids) != expected or len(set(ids)) != len(ids):
        return f"report holds {len(ids)} checks ({len(set(ids))} distinct), expected {expected}"
    failed = [r.check_id for r in report.results if not r.passed]
    return f"failed checks: {failed}" if failed else None


def corpus_cycle(members) -> str | None:
    """The corpus of `random_pairs(seed, 100, 8)`: planted indices cycle
    1, 2, 3, every second member has integer entries, no side exceeds 8."""
    wrong = [i for i, m in enumerate(members)
             if (m.planted_index, m.integer_entries) != (1 + i % 3, i % 2 == 1)
             or max(m.a.shape) > 8]
    return f"members {wrong} break the corpus pattern" if wrong or len(members) != 100 else None


# --------------------------------------------------------------------------
# exact arithmetic on real rational matrices (lists of rows of Fraction)


def fmat(rows) -> list[list[Fraction]]:
    return [[Fraction(int(v)) if isinstance(v, (int, np.integer)) else Fraction(v)
             for v in row] for row in rows]


def fmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def ftrans(a):
    return [list(col) for col in zip(*a)]


def feye(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def fpow(a, q: int):
    out = feye(len(a))
    for _ in range(q):
        out = fmul(out, a)
    return out


def _rref(a):
    """Reduced row echelon form and pivot columns, by Gauss-Jordan."""
    r = [row[:] for row in a]
    pivots = []
    row = 0
    for col in range(len(r[0]) if r else 0):
        p = next((i for i in range(row, len(r)) if r[i][col]), None)
        if p is None:
            continue
        r[row], r[p] = r[p], r[row]
        lead = r[row][col]
        r[row] = [v / lead for v in r[row]]
        for i in range(len(r)):
            if i != row and r[i][col]:
                f = r[i][col]
                r[i] = [v - f * pv for v, pv in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == len(r):
            break
    return r, pivots


def finv(a):
    n = len(a)
    r, pivots = _rref([row + e for row, e in zip(a, feye(n))])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in r]


def fpinv(a):
    """A^+ = G^T (G G^T)^-1 (F^T F)^-1 F^T from the full-rank factorization A = F G."""
    r, pivots = _rref(a)
    if not pivots:
        return [[Fraction(0)] * len(a) for _ in range(len(a[0]))]
    f = [[row[j] for j in pivots] for row in a]
    g = r[:len(pivots)]
    gt, ft = ftrans(g), ftrans(f)
    return fmul(fmul(gt, finv(fmul(g, gt))), fmul(finv(fmul(ft, f)), ft))


def fprojector(m):
    """Orthogonal projector F (F^T F)^-1 F^T onto the range of m."""
    _, pivots = _rref(m)
    if not pivots:
        return [[Fraction(0)] * len(m) for _ in range(len(m))]
    f = [[row[j] for j in pivots] for row in m]
    ft = ftrans(f)
    return fmul(fmul(f, finv(fmul(ft, f))), ft)


def exact_wqbt_operand(a, w, q: int):
    aw = fmul(a, w)
    return fmul(fmul(w, aw), fprojector(fpow(aw, q)))


def exact_penrose(b, x) -> bool:
    bx, xb = fmul(b, x), fmul(x, b)
    return (fmul(bx, b) == b and fmul(x, bx) == x
            and bx == ftrans(bx) and xb == ftrans(xb))


def exact_drazin(a, x, k: int) -> bool:
    ak = fpow(a, k)
    return (fmul(fmul(x, a), x) == x and fmul(a, x) == fmul(x, a)
            and fmul(x, fmul(ak, a)) == ak)


# --------------------------------------------------------------------------
# CLI output, parsed without geninv.io


def _split_complex(token: str) -> tuple[str, str]:
    """(real, imaginary) text of `a`, `bi`, `a+bi` or `a-bi`."""
    t = token.strip()
    if not t.endswith("i"):
        return t, "0"
    for pos in range(len(t) - 1, 0, -1):
        if t[pos] in "+-" and t[pos - 1] not in "eE":
            imag = t[pos:-1]
            return t[:pos], imag if imag not in "+-" else imag + "1"
    imag = t[:-1]
    return "0", imag if imag not in ("", "+", "-") else imag + "1"


def parse_float_output(text: str, fmt: str) -> np.ndarray:
    if fmt == "json":
        doc = json.loads(text)
        return np.array([[complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                          for v in row] for row in doc["data"]], dtype=np.complex128)
    rows = []
    for line in text.strip().splitlines():
        rows.append([complex(float(re_), float(im))
                     for re_, im in map(_split_complex, line.split(","))])
    return np.array(rows, dtype=np.complex128)


def parse_exact_output(text: str, fmt: str):
    """Rational matrix from exact CLI output; a nonzero imaginary part is an error."""
    if fmt == "json":
        entries = [[v if isinstance(v, list) else [v, "0"] for v in row]
                   for row in json.loads(text)["data"]]
    else:
        entries = [[_split_complex(tok) for tok in line.split(",")]
                   for line in text.strip().splitlines()]
    out = []
    for row in entries:
        values = []
        for re_, im in row:
            if Fraction(im) != 0:
                raise ValueError(f"complex entry {re_}+{im}i for a real input")
            values.append(Fraction(re_))
        out.append(values)
    return out


def split_verify(stdout: str) -> tuple[str, dict[str, float]]:
    """Matrix text and the `residual name = value` lines that --verify appends."""
    matrix, _, tail = stdout.partition("\n\n")
    residuals = {}
    for line in tail.splitlines():
        if line.startswith("residual "):
            name, _, value = line[len("residual "):].partition(" = ")
            residuals[name] = float(value)
    return matrix, residuals


# --------------------------------------------------------------------------


def perturb(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """X + 1e-2 ||X|| noise with ||noise|| = 1."""
    noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    return x + 1e-2 * _fro(x) * noise / _fro(noise)


def fperturb(x, rng: np.random.Generator):
    scale = Fraction(1, 100) * max(abs(v) for row in x for v in row)
    return [[v + scale * Fraction(int(rng.integers(-9, 10)), 9) for v in row] for row in x]


def self_test(seed: int = 0) -> list[str]:
    """Each checker accepts a true answer and rejects a perturbed one.

    True answers come from numpy's pinv, SVD and QR and from the exact
    arithmetic above, never from geninv. Returns the checkers that fail.
    """
    rng = np.random.default_rng(seed)
    problems = []

    def expect(name, residual_of, truth, tol=TOL):
        good = residual_of(truth)
        bad = residual_of(perturb(truth, rng))
        if not (good <= tol < bad):
            problems.append(f"self-test {name}: truth {good:.2e}, perturbed {bad:.2e}")

    k = 2
    a = planted_square(rng, 12, 6, k)
    ak = np.linalg.matrix_power(a, k)
    dz = ak @ pinv(np.linalg.matrix_power(a, 2 * k + 1)) @ ak
    b = qbt_operand(a, 1)
    expect("penrose", lambda x: penrose(b, x), pinv(b))
    expect("q0-vs-numpy-pinv", lambda x: agreement(x, pinv(a)), pinv(a), ROUTE_TOL)
    expect("drazin", lambda x: drazin(a, x, k), dz)
    g = planted_square(rng, 12, 6, 1)
    grp = g @ pinv(np.linalg.matrix_power(g, 3)) @ g
    expect("core-inverse", lambda x: core_inverse(g, x), grp @ g @ pinv(g))
    u = np.linalg.svd(ak)[0]
    mid = u.conj().T @ a @ u
    expect("core-ep-decomposition",
           lambda x: core_ep_decomposition(a, x, mid[:6, :6], mid[:6, 6:], mid[6:, 6:], k), u)

    pa, pw = planted_pair(rng, 10, 8, 4, k)
    wb = wqbt_operand(pa, pw, 2)
    expect("weighted-penrose", lambda x: penrose(wb, x), pinv(wb))
    wa = pw @ pa
    wak = np.linalg.matrix_power(wa, k)
    wad = wak @ pinv(np.linalg.matrix_power(wa, 2 * k + 1)) @ wak
    expect("weighted-drazin", lambda x: weighted_drazin(pa, pw, x, k), pa @ wad @ wad)
    uu = np.linalg.svd(np.linalg.matrix_power(pa @ pw, k))[0]
    vv = np.linalg.svd(wak)[0]
    am, wm = uu.conj().T @ pa @ vv, vv.conj().T @ pw @ uu
    blocks = (am[:4, :4], am[:4, 4:], am[4:, 4:], wm[:4, :4], wm[:4, 4:], wm[4:, 4:])
    expect("weighted-decomposition",
           lambda x: weighted_decomposition(pa, pw, x, vv, blocks), uu)
    expect("route-agreement", lambda x: agreement(x, pinv(b)), pinv(b), ROUTE_TOL)

    ia, iw = (fmat(m) for m in integer_pair(rng, 6, 5, 3, k))
    ib = exact_wqbt_operand(ia, iw, 1)
    ix = fpinv(ib)
    if not exact_penrose(ib, ix) or exact_penrose(ib, fperturb(ix, rng)):
        problems.append("self-test exact-penrose")
    isq = fmat(integer_square(rng, 6, 3, k))
    isk = fpow(isq, k)
    idz = fmul(fmul(isk, fpinv(fpow(isq, 2 * k + 1))), isk)
    if not exact_drazin(isq, idz, k) or exact_drazin(isq, fperturb(idz, rng), k):
        problems.append("self-test exact-drazin")

    ids = [f"c{i}" for i in range(CONFORMANCE_CHECKS)]
    full = SimpleNamespace(results=[SimpleNamespace(check_id=i, passed=True) for i in ids])
    missing = SimpleNamespace(results=full.results[1:])
    failing = SimpleNamespace(results=full.results[1:] + [SimpleNamespace(check_id="c0",
                                                                          passed=False)])
    if conformance(full, CONFORMANCE_CHECKS) is not None \
            or conformance(missing, CONFORMANCE_CHECKS) is None \
            or conformance(failing, CONFORMANCE_CHECKS) is None:
        problems.append("self-test conformance")

    csv_text = "1.5-2i,-3i,4\n0,1e-05+2.5i,-i"
    want = np.array([[1.5 - 2j, -3j, 4], [0, 1e-05 + 2.5j, -1j]])
    json_text = '{"rows": 1, "cols": 2, "data": [[0.5, [1.0, -2.0]]]}'
    if not (np.array_equal(parse_float_output(csv_text, "csv"), want)
            and np.array_equal(parse_float_output(json_text, "json"), [[0.5, 1 - 2j]])
            and parse_exact_output("1/2,-3\n0,7/3", "csv") == fmat([["1/2", -3], [0, "7/3"]])
            and parse_exact_output('{"data": [["-1/3", ["2", "0"]]]}', "json")
            == fmat([["-1/3", 2]])):
        problems.append("self-test output parsers")
    return problems
