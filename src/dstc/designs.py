"""Linear dispersion design constructors for relay space-time codes.

A design is a T x R matrix-valued function S(X) of K *real* symbols,
S(X) = sum_k X[k] * weights[k], and its (K, T, R) weight array is all a
design is: T, R and K are that array's shape. Columns are what individual
relays transmit during the cooperation phase. A column that is a linear
form in the source symbols only (not their conjugates) can be produced by
a relay holding a single matrix applied to its received vector; a column
in the conjugates only needs the same with a conjugated reception. Which
kind each column is, is read off the weights (column_kinds), never
declared.

Real symbols pair canonically into complex source symbols
``s[m] = X[2m] + 1j*X[2m+1]``, so the source vector has K/2 complex entries.

Families:

* block-diagonal coordinate-interleaved designs (``pciod``/``ciod4``): rate
  one, with a mod-4 symbol partition used for 4-group decoding and rotated
  lattice precoding;
* banded shift designs (``toeplitz``): full diversity under linear receivers;
* cyclic-algebra designs (``cda``): high rate, built from a numeric parameter
  table (an R x R table of algebra-basis conjugates plus a non-norm element
  ``delta`` and a normalization ``theta``);
* the relay-free design (``direct_design``): T = R = 0, the no-relay
  baseline, whose protocol is the broadcast phase alone.

A design file (save_design, load_design) is JSON with the keys ``family``,
``weights`` (the (K, T, R) array as [re, im] pairs), ``partition`` and, for
a precoded design, ``precode`` (an object of the two sides ``p`` and
``q``). Older files also carry ``t``, ``r``, ``k`` and ``col_conj``:
``col_conj`` is ignored, and a ``t``, ``r`` or ``k`` that disagrees with
the weights' shape is refused with a ValueError naming it. Any other key
is refused the same way, since nothing would read it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import matkernel
from .precoding import check_partition, partition_mod4

PLAIN = "plain"
CONJ = "conj"
MIXED = "mixed"


@dataclass(frozen=True)
class PrecodePair:
    """Source-side pre-transformation s_tilde = p_mat @ s + q_mat @ conj(s).

    Lets a design whose columns mix symbols and conjugates of the *user*
    symbols still be relayed with single relay matrices: the source applies
    the pair, and the design is conjugate-linear in the transformed symbols.
    """

    p_mat: np.ndarray
    q_mat: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_mat, dtype=np.complex128)
        q = np.asarray(self.q_mat, dtype=np.complex128)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or q.shape != p.shape:
            raise ValueError("precode pair must be two square matrices of one "
                             f"size, got shapes {p.shape} and {q.shape}")
        matkernel.require_finite(p, "precode p")
        matkernel.require_finite(q, "precode q")
        object.__setattr__(self, "p_mat", p)
        object.__setattr__(self, "q_mat", q)

    def apply(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.complex128)
        return self.p_mat @ s + self.q_mat @ np.conj(s)

    def real_matrix(self) -> np.ndarray:
        """The induced real-linear map on interleaved real coordinates.

        Returns the 2n x 2n real matrix M with
        interleave(apply(s)) = M @ interleave(s).
        """
        n = self.p_mat.shape[0]
        m = np.zeros((2 * n, 2 * n))
        for j in range(2 * n):
            x = np.zeros(2 * n)
            x[j] = 1.0
            st = self.apply(x[0::2] + 1j * x[1::2])
            m[0::2, j] = st.real
            m[1::2, j] = st.imag
        return m


@dataclass(frozen=True)
class Design:
    """A T x R linear dispersion design in K real symbols.

    ``weights`` is the finite (K, T, R) complex array, K >= 1, and T, R
    and K are read off its shape. ``partition``, when given, splits the K
    symbol indices into decoding groups, each index in exactly one.
    ``precode`` is the source-side pair of a precoded design, K/2 x K/2.
    """

    family: str
    weights: np.ndarray
    partition: tuple[tuple[int, ...], ...] = ()
    precode: PrecodePair | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128)
        if w.ndim != 3:
            raise ValueError(f"design weights must be a (K, T, R) array, "
                             f"got shape {w.shape}")
        if not len(w):
            raise ValueError("a design needs at least one real symbol, got K=0")
        matkernel.require_finite(w, "design weights")
        object.__setattr__(self, "weights", w)
        if self.partition:
            check_partition(self.partition, self.k)
        if self.precode is not None and 2 * len(self.precode.p_mat) != self.k:
            n = len(self.precode.p_mat)
            raise ValueError(f"precode pair is {n}x{n}, but a design in K={self.k} "
                             "real symbols needs K/2 x K/2")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def t(self) -> int:
        return self.weights.shape[1]

    @property
    def r(self) -> int:
        return self.weights.shape[2]

    @property
    def n_complex(self) -> int:
        """Number of complex source symbols (K/2)."""
        return self.k // 2

    def codeword(self, x: np.ndarray) -> np.ndarray:
        """Evaluate S(X) for a real symbol vector (or a batch, last axis K)."""
        x = np.asarray(x, dtype=np.float64)
        return np.einsum("...k,ktr->...tr", x, self.weights)

    def source_vector(self, x: np.ndarray) -> np.ndarray:
        """Canonical complex pairing s[m] = X[2m] + i X[2m+1]."""
        x = np.asarray(x, dtype=np.float64)
        return x[..., 0::2] + 1j * x[..., 1::2]

    def column_forms(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Column ``col`` as a pair (P, Q) with column = P @ s + Q @ conj(s).

        Both are T x (K/2). Exact, since the design is real-linear: the
        coefficient of s[m] is (A_{2m} - i A_{2m+1})/2 and of conj(s[m])
        is (A_{2m} + i A_{2m+1})/2.
        """
        a_re = self.weights[0::2, :, col].T   # (t, k/2)
        a_im = self.weights[1::2, :, col].T
        return 0.5 * (a_re - 1j * a_im), 0.5 * (a_re + 1j * a_im)


@dataclass(frozen=True)
class RelayMatrixSet:
    """One matrix per relay, plain relays first.

    Relay ``i`` transmits ``matrices[i] @ s`` if ``conj[i]`` is False and
    ``matrices[i] @ conj(s)`` otherwise; the result is column ``columns[i]``
    of the design. ``columns`` records the design column each relay owns,
    since the canonical plain-first ordering may permute block-interleaved
    constructions.
    """

    matrices: tuple[np.ndarray, ...]
    conj: tuple[bool, ...]
    columns: tuple[int, ...]

    @property
    def q(self) -> int:
        """Number of plain (non-conjugating) relays."""
        return sum(1 for c in self.conj if not c)

    @property
    def n_relays(self) -> int:
        return len(self.matrices)

    @cached_property
    def grams(self) -> np.ndarray:
        """The (R, T2, T2) stack M_i M_i^H that every noise quantity reads;
        (0, 0, 0) for the relay-free set."""
        grams = [m @ matkernel.herm(m) for m in self.matrices]
        return np.array(grams) if grams else np.zeros((0, 0, 0), dtype=np.complex128)

    def scaled(self, factors) -> "RelayMatrixSet":
        factors = np.broadcast_to(np.asarray(factors, dtype=np.float64), (self.n_relays,))
        return RelayMatrixSet(
            tuple(f * m for f, m in zip(factors, self.matrices)),
            self.conj, self.columns)

    def by_column(self) -> "RelayMatrixSet":
        """The same relays renumbered in design-column order (relay i owns
        column i), the layout block-diagonal examples are written in."""
        order = sorted(range(self.n_relays), key=lambda i: self.columns[i])
        return RelayMatrixSet(tuple(self.matrices[i] for i in order),
                              tuple(self.conj[i] for i in order),
                              tuple(self.columns[i] for i in order))


def unit_energy_relays(rs: RelayMatrixSet) -> RelayMatrixSet:
    """Rescale each relay matrix to unit total energy, tr(M M^H) = 1.

    This is the per-relay power normalization under which the 2x2-block
    coordinate-interleaved relay set has Gram (1/2) I on its support.
    """
    return rs.scaled([1.0 / np.linalg.norm(m) for m in rs.matrices])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def build_pciod(r: int) -> Design:
    """Rate-one R x R block-diagonal coordinate-interleaved design, R even.

    Block j (rows/cols 2j, 2j+1) carries real symbols x_{4j}..x_{4j+3}:

        [[ x0 + i x1,  -x2 + i x3 ],
         [ x2 + i x3,   x0 - i x1 ]]

    K = 2R real symbols; even columns are plain, odd columns conjugated
    (column_kinds); the stored partition groups indices by residue mod 4.
    """
    if r < 2 or r % 2:
        raise ValueError(
            f"pciod needs an even relay count >= 2, got {r}; "
            "use family 'pciod-rect' for odd counts")
    k = 2 * r
    w = np.zeros((k, r, r), dtype=np.complex128)
    for j in range(r // 2):
        r0, r1 = 2 * j, 2 * j + 1
        b = 4 * j
        w[b + 0, r0, r0] = 1.0
        w[b + 0, r1, r1] = 1.0
        w[b + 1, r0, r0] = 1j
        w[b + 1, r1, r1] = -1j
        w[b + 2, r0, r1] = -1.0
        w[b + 2, r1, r0] = 1.0
        w[b + 3, r0, r1] = 1j
        w[b + 3, r1, r0] = 1j
    return Design("pciod", w, partition_mod4(k))


def build_pciod_rect(r: int) -> Design:
    """PCIOD for an odd relay count: build for R+1 and drop the last column."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"rectangular pciod is for odd relay counts, got {r}")
    full = build_pciod(r + 1)
    return replace(full, family="pciod-rect", weights=full.weights[:, :, :r])


def build_ciod4() -> tuple[Design, PrecodePair]:
    """The 4x4 coordinate-interleaved orthogonal design with its precoder.

    The design matrix over the interleaved symbols equals the R=4 PCIOD.
    The precode pair maps user symbols (x1..x4) to the transmitted vector
    whose entries swap imaginary parts across the two diagonal blocks:
    first entry Re(x1) + i Im(x3), and so on.
    """
    p = 0.5 * np.array([[1, 0, 1, 0],
                        [0, 1, 0, 1],
                        [1, 0, 1, 0],
                        [0, 1, 0, 1]], dtype=np.complex128)
    q = 0.5 * np.array([[1, 0, -1, 0],
                        [0, 1, 0, -1],
                        [-1, 0, 1, 0],
                        [0, -1, 0, 1]], dtype=np.complex128)
    pre = PrecodePair(p, q)
    return replace(build_pciod(4), family="ciod4", precode=pre), pre


def build_toeplitz(t1: int, r: int) -> Design:
    """Banded shift design: column j is (x_1..x_{T1}) shifted down j rows.

    Shape (T1+R-1) x R, K = 2*T1 real symbols, all columns plain. The
    stored partition is the trivial single group (the family is not
    group decodable; its point is linear-receiver full diversity).
    """
    if t1 < 1 or r < 1:
        raise ValueError("toeplitz needs t1 >= 1 and r >= 1")
    t = t1 + r - 1
    k = 2 * t1
    w = np.zeros((k, t, r), dtype=np.complex128)
    for m in range(t1):
        for j in range(r):
            w[2 * m, m + j, j] = 1.0
            w[2 * m + 1, m + j, j] = 1j
    return Design("toeplitz", w, (tuple(range(k)),))


def build_cda(r: int, delta: complex, theta: float, sigma_table) -> Design:
    """R x R cyclic-algebra design from a numeric parameter table.

    ``sigma_table[i][j]`` is the j-th algebra conjugate of the i-th basis
    element. Entry (row k, column j) of the design is

        (1/sqrt(theta)) * (delta if k < j else 1)
                        * sum_i f[(k-j) mod R, i] * sigma_table[i][j]

    in the R^2 complex symbols f[a, i] (K = 2 R^2 real symbols, complex
    symbol index m = a*R + i). Every column is plain, so the family is
    conjugate-linear row-orthogonal by construction.
    """
    table = np.asarray(sigma_table, dtype=np.complex128)
    if table.shape != (r, r):
        raise ValueError(f"sigma_table must be {r}x{r}, got {table.shape}")
    if not theta > 0:
        raise ValueError("theta must be positive")
    k = 2 * r * r
    w = np.zeros((k, r, r), dtype=np.complex128)
    scale = 1.0 / np.sqrt(float(theta))
    for kk in range(r):
        for j in range(r):
            coef = scale * (delta if kk < j else 1.0)
            a = (kk - j) % r
            for i in range(r):
                m = a * r + i
                c = coef * table[i, j]
                w[2 * m, kk, j] = c
                w[2 * m + 1, kk, j] = 1j * c
    return Design("cda", w, (tuple(range(k)),))


def direct_design(t1: int) -> Design:
    """The relay-free design of the no-relay baseline: T = R = 0.

    K = 2*T1 real symbols, grouped by complex symbol, (0, 1), (2, 3), ...;
    with no relays the protocol is its broadcast phase alone, the source
    sending T1 symbols straight to the destination.
    """
    if t1 < 1:
        raise ValueError("direct transmission needs t1 >= 1")
    return Design("direct", np.zeros((2 * t1, 0, 0), dtype=np.complex128),
                  tuple((2 * i, 2 * i + 1) for i in range(t1)))


def golden_cda() -> Design:
    """Built-in R=2 cyclic-algebra instance with non-vanishing determinant.

    Standard 2x2 perfect-code parameters: the algebra over the golden-ratio
    field, non-norm element delta = i, normalization theta = 5, and the
    ideal basis (alpha, alpha*g) with g = (1+sqrt5)/2 and alpha = 1+i(1-g).
    The minimum |det(dS^H dS)| over integer QAM differences is 16/5 at
    every constellation size.
    """
    s5 = np.sqrt(5.0)
    g = (1.0 + s5) / 2.0
    gbar = (1.0 - s5) / 2.0
    alpha = 1.0 + 1j * (1.0 - g)
    salpha = 1.0 + 1j * (1.0 - gbar)
    table = [[alpha, salpha],
             [alpha * g, salpha * gbar]]
    return build_cda(2, 1j, 5.0, table)


# ---------------------------------------------------------------------------
# relay matrix extraction
# ---------------------------------------------------------------------------

def column_kinds(d: Design) -> tuple[list[str], float, list]:
    """Classify every column as plain, conj or mixed, with the worst impurity.

    Column c is P_c @ s + Q_c @ conj(s) (Design.column_forms): plain when
    Q_c vanishes, conj when only P_c does, mixed otherwise, by the package
    zero test. The impurity of a column is min(max|P_c|, max|Q_c|). The
    (P_c, Q_c) pairs are returned too.
    """
    scale = float(np.max(np.abs(d.weights))) if d.weights.size else 0.0
    thr = matkernel.zero_threshold(scale)
    forms = [d.column_forms(c) for c in range(d.r)]
    kinds = []
    worst = 0.0
    for p, q in forms:
        pmax = float(np.max(np.abs(p))) if p.size else 0.0
        qmax = float(np.max(np.abs(q))) if q.size else 0.0
        worst = max(worst, min(pmax, qmax))
        kinds.append(PLAIN if qmax <= thr else CONJ if pmax <= thr else MIXED)
    return kinds, worst, forms


def relay_matrix_set(d: Design) -> RelayMatrixSet:
    """Extract one matrix per relay from a design with conjugate-linear columns.

    Plain columns give the matrix applied to the source vector s, conjugated
    columns the matrix applied to conj(s). Relays are emitted plain-first;
    ``columns`` maps each relay back to its design column. Columns are
    classified by column_kinds; raises ValueError (with the offending
    column) if some column mixes symbols and conjugates.
    """
    kinds, _, forms = column_kinds(d)
    if MIXED in kinds:
        raise ValueError(
            f"column {kinds.index(MIXED)} mixes symbols and conjugates; "
            "no single relay matrix exists for it")
    order = sorted(range(d.r), key=lambda c: kinds[c] == CONJ)
    return RelayMatrixSet(tuple(forms[c][kinds[c] == CONJ] for c in order),
                          tuple(kinds[c] == CONJ for c in order),
                          tuple(order))


def compose_precode(d: Design) -> Design:
    """Re-express a precoded design in its pre-transformation symbols.

    The returned design has the same matrix entries as functions of the
    *user* real symbols (precode folded into the weights). Its columns
    generally mix symbols and conjugates, which is the point of checking at
    this level.
    """
    if d.precode is None:
        raise ValueError("design has no precode pair")
    m = d.precode.real_matrix()
    w = np.einsum("kj,ktr->jtr", m, d.weights)
    return Design(d.family + "-raw", w, d.partition)


# ---------------------------------------------------------------------------
# serialization (JSON, bit-exact round trip)
# ---------------------------------------------------------------------------

def _c2pair(a: np.ndarray):
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pair2c(v, ndim: int, name: str) -> np.ndarray:
    """The complex array of ``ndim`` axes that _c2pair wrote. JSON keeps no
    axis after an empty one, so an empty array gets its missing axes back.

    Raises ValueError naming ``name`` and the array's shape unless a
    nonempty array holds [re, im] pairs on its last axis.
    """
    a = np.asarray(v, dtype=np.float64)
    if not a.size:
        return np.zeros(a.shape + (0,) * (ndim - a.ndim), dtype=np.complex128)
    if a.shape[-1:] != (2,):
        raise ValueError(f"{name} must be [re, im] pairs, got an array "
                         f"of shape {a.shape}")
    return (a[..., 0] + 1j * a[..., 1]).astype(np.complex128)


def design_to_dict(d: Design) -> dict:
    out = {
        "family": d.family,
        "weights": _c2pair(d.weights),
        "partition": [list(g) for g in d.partition],
    }
    if d.precode is not None:
        out["precode"] = {"p": _c2pair(d.precode.p_mat),
                          "q": _c2pair(d.precode.q_mat)}
    return out


# the keys a design file may carry, sorted: design_to_dict's, and the older
# files' header, which is only checked against the weights
_FILE_KEYS = ("col_conj", "family", "k", "partition", "precode", "r", "t", "weights")


def design_from_dict(obj: dict) -> Design:
    """The design a dict of design_to_dict's keys describes.

    Raises ValueError naming a key that nothing reads, a missing
    ``family``, ``weights`` or ``partition`` key, a precode that is not an
    object of exactly the keys ``p`` and ``q``, weights or a precode side
    that are not [re, im] pairs, or a ``t``, ``r`` or ``k`` that disagrees
    with the weights.
    """
    for key in obj:
        if key not in _FILE_KEYS:
            raise ValueError(f"design file key {key!r} is unknown; known: {list(_FILE_KEYS)}")
    for key in ("family", "weights", "partition"):
        if key not in obj:
            raise ValueError(f"design file has no {key!r} key")
    pre = obj.get("precode")
    if pre is not None:
        got = sorted(pre) if isinstance(pre, dict) else type(pre).__name__
        if got != ["p", "q"]:
            raise ValueError("design file's precode must be an object of exactly the "
                             f"keys 'p' and 'q', got {got}")
        pre = PrecodePair(*(_pair2c(pre[side], 2, f"precode {side}") for side in "pq"))
    d = Design(obj["family"], _pair2c(obj["weights"], 3, "design weights"),
               tuple(tuple(g) for g in obj["partition"]), pre)
    _check_agrees(obj, {"t": d.t, "r": d.r, "k": d.k}, "design file", "its weights have")
    return d


def save_design(d: Design, path) -> None:
    with open(path, "w") as fh:
        json.dump(design_to_dict(d), fh, indent=1)


def load_design(path) -> Design:
    with open(path) as fh:
        return design_from_dict(json.load(fh))


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


def _check_agrees(given: dict, have: dict, source: str, holder: str) -> None:
    """Refuse a count of ``have`` that ``given`` gives another value; ``source``
    names what gives ``given``, ``holder`` what has ``have``."""
    for key, value in have.items():
        if key in given and given[key] != value:
            raise ValueError(f"{source} gives {key}={given[key]!r}, but {holder} "
                             f"{key}={value}")


# family -> its builder and the counts that builder reads, in argument order
FAMILIES = {
    "pciod": (build_pciod, ("relays",)),
    "pciod-rect": (build_pciod_rect, ("relays",)),
    "ciod4": (lambda: build_ciod4()[0], ()),
    "toeplitz": (build_toeplitz, ("t1", "relays")),
    "cda": (golden_cda, ()),
    "direct": (direct_design, ("t1",)),
}


def build_family(family: str, relays: int | None = None, t1: int | None = None) -> Design:
    """The design of ``family``, built from the counts it reads (FAMILIES).

    None is a count not given. Every count the family reads is required,
    every count given must pass check_count, and a count given must be true
    of the design built: ``relays`` its R, ``t1`` its K/2, the broadcast
    phase's length. Raises ValueError otherwise, or for an unknown family.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    builder, reads = FAMILIES[family]
    given = {key: n for key, n in (("relays", relays), ("t1", t1)) if n is not None}
    for key, value in given.items():
        check_count(key, value, 0)
    if not set(reads) <= set(given):
        raise ValueError(f"family {family!r} needs {' and '.join(reads)}")
    d = builder(*(given[key] for key in reads))
    _check_agrees(given, {"relays": d.r, "t1": d.n_complex}, f"family {family!r}",
                  "its design has")
    return d
