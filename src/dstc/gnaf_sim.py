"""Two-phase amplify-and-forward relay channel and its Monte Carlo harness.

Protocol: the source broadcasts a T1-symbol vector (phase 1); each relay
applies its single matrix (optionally to the conjugated reception) and
forwards the result over T2 uses (phase 2); the destination stacks what it
heard in both phases. Two equivalent signal models are implemented:

* ``two_phase``: the physical protocol, step by step;
* ``compact``: the stacked real-linear model y = M X + W, with M built for
  a batch of channels at once by ``effective_matrix`` from the per-column
  gains g_i*f_i (conjugating relays g_i*conj(f_i), see ``column_gains``),
  and W the relay-amplified noise plus destination noise. There is one
  such model, and a single trial is the batch of one. The Monte Carlo
  never builds M: it forms the whitened model's sufficient statistics
  (z, G) from the gains (``_whitened_stats``), reading the relay rows off
  the same realified weight table as ``effective_matrix``
  (``_relay_table``) and adding the direct-link rows in closed form.

Fed identical noise draws the two modes agree to machine precision; that
equivalence is the core correctness oracle for the model and is pinned in
the acceptance suite, on single trials and on batches. The Monte Carlo's
(z, G) are checked against the two-phase protocol, whitened by the exact
noise covariance, on every variant.

Variants: ``gnaf1`` (source also transmits in phase 2 through A0), ``gnaf2``
and ``gnaf3`` (source silent in phase 2), ``jh`` (no direct link: the
destination only observes phase 2), ``direct`` (the no-relay baseline). The
baseline needs no model of its own: it runs the relay-free design
(designs.direct_design, R = 0 and T2 = 0) through the same model, where
phase 2 is empty and the receive vector is phase 1 alone.

The stacked noise covariance Omega is the identity plus, on the
cooperation rows, the relay Gram Gamma (``relay_noise_cov``). Gamma, Omega
(``noise_cov``, dense, exact for any relay set) and Omega's diagonal
(``omega_diagonals``) all read the relay set's Gram stack M_i M_i^H. The
Monte Carlo whitens with the diagonal only, which is exact for
conjugate-linear row-orthogonal (CLRO) designs, so it refuses the others.

SNR convention: SNR == P (linear total power), reported as 10*log10(P);
all noises have unit variance per complex dimension. The power fractions
pi1, pi2, pi3 are free per-phase knobs (default 1) recorded in result
metadata.

Reproducibility: randomness is counter-based (Philox) keyed by
(master seed, stream labels), so any batch of trials can be regenerated
independently of worker count or execution order.

Execution: ``run_monte_carlo`` cuts the sweep into (SNR point, batch)
tasks. A batch draws all its randomness at once, then forms (z, G) for
and decides its draws in equal blocks, sized as if their model matrices
had to fit ``_BLOCK_BYTES``, and joint ML scores the codebook in fixed
chunks of candidates; so the memory of a task grows with its batch size only by the
per-draw random inputs, and with the codebook not at all. Each worker
owns one workspace (matkernel.Workspace) for the sweep, which the call
drops when it returns. A batch and its blocks take their arrays from it
(_run_batch), so after its first batch a worker allocates almost nothing
of batch or block size, and glibc has no freed heap to trim and fault
in again. Arrays from the workspace are overwritten by their next user:
a block's (z, G) are valid until the next block, and a caller that keeps
them copies them. The calling process is one of the workers. With more than one, no
more than the usable cores or the task count, it starts helper processes
that receive the config, the relay set, the task list and a shared task
counter once, at start-up. Helpers are forked from the standard library's
forkserver, which the first pooled sweep of a process starts with numpy
preloaded; later sweeps fork from the same warm server, so a helper only
imports dstc before it takes a task. The server keeps
the environment of its start (the BLAS thread variables among it); later
changes to the caller's environment do not reach the helpers. A thread
starts the helpers, each with its own one-way pipe, so the caller runs
batches while the server is started and forks them. The caller and every
helper claim tasks from the counter until none is left; each helper then
sends its parts, or the exception that stopped it, on its pipe. Helpers
left without a task are stopped, not awaited, once they are started; a
helper that dies before it sends, even holding the counter's lock,
raises in the caller, not a hang. Every helper exits before the call
returns, and the server reaps it.

Every batch returns the SimResult of its own draws, and a point's
SimResult is the sum of its batches' (SimResult.__add__), taken left to
right in batch order whatever process ran each batch.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from . import matkernel
from .designs import Design, RelayMatrixSet, check_count, relay_matrix_set
from .receivers import (Codebook, MlTable, SlicerTable, gram_crossterm,
                        ml_grouped, ml_joint, ml_table, mmse_detect,
                        slicer_table, zf_detect)

VARIANTS = ("gnaf1", "gnaf2", "gnaf3", "jh", "direct")
_RECEIVERS = ("joint-ml", "grouped-ml", "zf", "mmse")


def make_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, stream labels)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def crandn(rng: np.random.Generator, *shape: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian, unit variance.

    Each complex draw is a consecutive (real, imaginary) pair of standard
    normals, scaled in place and viewed as complex128. The normals are
    written into ``out``, a C-contiguous float64 array of shape
    ``shape + (2,)``, when it is given; they are the bits a fresh draw
    would have.
    """
    z = rng.standard_normal(tuple(shape) + (2,), out=out)
    z *= 1.0 / np.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


@dataclass(frozen=True)
class ProtocolParams:
    """Power split and phase geometry of the relay protocol."""

    p: float                      # total power (linear); the SNR knob
    pi1: float = 1.0              # broadcast-phase power fraction
    pi2: float = 1.0              # source cooperation-phase fraction (gnaf1)
    pi3: float = 1.0              # relay power fraction
    t1: int = 1                   # broadcast-phase length
    t2: int = 1                   # cooperation-phase length
    r: int = 1                    # relay count
    q: int = 1                    # plain (non-conjugating) relay count
    variant: str = "gnaf2"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; known: {VARIANTS}")
        if not all(0 < v < math.inf for v in (self.p, self.pi1, self.pi2, self.pi3)):
            raise ValueError("powers must be finite and positive")

    @property
    def amplify(self) -> float:
        """Relay amplification power factor pi3*P/(pi1*P+1)."""
        return self.pi3 * self.p / (self.pi1 * self.p + 1.0)

    @property
    def scale(self) -> float:
        """Front factor sqrt(pi3*pi1*P^2/(pi1*P+1)) of the compact model.

        Formed as sqrt(amplify * pi1 * P), so that no P^2 overflows at an
        SNR whose power P is finite.
        """
        return float(np.sqrt(self.amplify * self.pi1 * self.p))

    @property
    def rows(self) -> int:
        """Length of the destination's receive vector: T1 + T2, T2 without
        the direct link (``jh``); T2 is 0 without relays."""
        return self.t2 if self.variant == "jh" else self.t1 + self.t2

    def source_matrix(self) -> np.ndarray:
        """A0, the source's cooperation-phase matrix (gnaf1): the T2 x T1
        truncated/padded identity."""
        return np.eye(self.t2, self.t1, dtype=np.complex128)


def protocol_params(d: Design, p: float, variant: str = "gnaf2",
                    pi: tuple[float, float, float] = (1.0, 1.0, 1.0),
                    rs: RelayMatrixSet | None = None) -> ProtocolParams:
    """Fill phase geometry from a design: T1 = K/2 complex symbols, T2 = T."""
    rs = rs or relay_matrix_set(d)
    return ProtocolParams(p=p, pi1=pi[0], pi2=pi[1], pi3=pi[2],
                          t1=d.n_complex, t2=d.t, r=d.r, q=rs.q,
                          variant=variant)


@dataclass(frozen=True)
class ChannelRealization:
    """Quasi-static link gains: source->dest, source->relay_i, relay_i->dest."""

    g0: complex
    f: np.ndarray
    g: np.ndarray


def sample_channel(r: int, rng: np.random.Generator) -> ChannelRealization:
    """All link gains i.i.d. CN(0,1)."""
    z = crandn(rng, 2 * r + 1)
    return ChannelRealization(complex(z[0]), z[1:r + 1].copy(), z[r + 1:].copy())


@dataclass(frozen=True)
class NoiseDraw:
    """One trial's noise: destination phase-1/2 vectors and per-relay vectors."""

    w1: np.ndarray
    w2: np.ndarray
    v: np.ndarray      # (R, T1)


def draw_noise(params: ProtocolParams, rng: np.random.Generator) -> NoiseDraw:
    return NoiseDraw(crandn(rng, params.t1), crandn(rng, params.t2),
                     crandn(rng, params.r, params.t1))


# ---------------------------------------------------------------------------
# the noise covariance
# ---------------------------------------------------------------------------

def relay_noise_cov(params: ProtocolParams, rs: RelayMatrixSet,
                    g: np.ndarray) -> np.ndarray:
    """Relay noise covariance Gamma = amplify * sum_i |g_i|^2 M_i M_i^H.

    ``g`` holds the relay-to-destination gains on its last axis, (..., R);
    a wrong count or a non-finite gain raises ValueError.
    """
    if np.shape(g)[-1:] != (rs.n_relays,):
        raise ValueError(f"need {rs.n_relays} relay gains on the last axis, "
                         f"got shape {np.shape(g)}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite relay gain")
    return params.amplify * np.einsum("...i,ist->...st", np.abs(g) ** 2, rs.grams)


def noise_cov(params: ProtocolParams, ch: ChannelRealization,
              rs: RelayMatrixSet) -> np.ndarray:
    """Covariance of the stacked noise W, dense, for one trial.

    The identity, plus relay_noise_cov on the trailing T2 (cooperation)
    rows, of which the relay-free design has none. Row-orthogonal relay
    matrices make it diagonal; for any other relay set the lower block is
    dense, and this function still returns it exactly. The Monte Carlo
    uses only the diagonal (omega_diagonals) and refuses designs that fail
    CLRO.
    """
    omega = np.eye(params.rows, dtype=np.complex128)
    coop = params.rows - params.t2
    omega[coop:, coop:] += relay_noise_cov(params, rs, ch.g)
    return omega


def simulate_trial(d: Design, params: ProtocolParams,
                   ch: ChannelRealization, s: np.ndarray,
                   mode: str = "compact", *, noise: NoiseDraw,
                   rs: RelayMatrixSet | None = None) -> np.ndarray:
    """One received vector, via the compact model or the physical protocol.

    The explicit ``noise`` draw (see draw_noise) makes the two modes
    comparable on identical randomness. ``rs`` is the design's relay set,
    built when not given; for the relay-free design both modes return the
    broadcast phase alone. The compact mode's noise W is the protocol's
    output at silent symbols s = 0: the protocol is linear in s, so that
    output is its noise alone.
    """
    s = np.asarray(s, dtype=np.complex128)
    rs = rs or relay_matrix_set(d)

    if mode == "compact":
        h = column_gains(rs, ch.f, ch.g)[None]
        m = effective_matrix(d, params, np.array([ch.g0]), h)[0]
        x = np.stack([s.real, s.imag], axis=-1).ravel()
        return m @ x + simulate_trial(d, params, ch, np.zeros_like(s), "two_phase",
                                      noise=noise, rs=rs)

    if mode != "two_phase":
        raise ValueError(f"unknown mode {mode!r}")

    p, pi1, pi2 = params.p, params.pi1, params.pi2
    y1 = np.sqrt(pi1 * p) * ch.g0 * s + noise.w1
    amp = np.sqrt(params.amplify)
    y2 = noise.w2.astype(np.complex128).copy()
    for i, (m, cj) in enumerate(zip(rs.matrices, rs.conj)):
        received = np.sqrt(pi1 * p) * ch.f[i] * s + noise.v[i]
        if cj:
            received = np.conj(received)
        y2 += ch.g[i] * (amp * (m @ received))
    if params.variant == "gnaf1":
        y2 += np.sqrt(pi2 * p) * ch.g0 * (params.source_matrix() @ s)
    if params.variant == "jh":
        return y2
    return np.concatenate([y1, y2])


# ---------------------------------------------------------------------------
# effective real-linear receiver model
# ---------------------------------------------------------------------------

def column_gains(rs: RelayMatrixSet, f: np.ndarray, g: np.ndarray,
                 ws: matkernel.Workspace | None = None) -> np.ndarray:
    """Effective gain per design column: g_i f_i, conjugating relays g_i f_i^*.

    ``f`` and ``g`` hold the relay link gains in relay order on their last
    axis, (..., R); the result has the same shape, in design-column order.
    It and its scratch are taken from ``ws`` when given.
    """
    ws = matkernel.Workspace() if ws is None else ws
    # first f, conjugated for the conjugating relays, in relay order
    h = ws.array("gains.columns", np.shape(f), np.complex128)
    np.copyto(h, f)
    np.conjugate(h, out=h, where=np.array(rs.conj, dtype=bool))
    # the product goes to another array: numpy may multiply in place by
    # another loop, whose last bits differ
    product = np.multiply(g, h, out=ws.array("gains.product", np.shape(g),
                                              np.complex128))
    h[..., list(rs.columns)] = product
    return h


def _direct_gain(params: ProtocolParams, g0: np.ndarray) -> np.ndarray:
    """Gain a of the direct-link rows: row i of the model is a d s_i / d x."""
    p, pi1, pi3 = params.p, params.pi1, params.pi3
    return params.scale * np.sqrt((pi1 * p + 1.0) / (pi3 * p)) * g0


def _relay_table(d: Design, params: ProtocolParams) -> np.ndarray:
    """The design's weights realified, (2C, T2 * 2 * (K + 1)): the relay rows.

    Slab c holds W_c[t, k], the weight of real symbol k on cooperation row t
    of design column c; for ``gnaf1`` one more slab holds A0's pairing of the
    source, 1 at (i, 2i) and j at (i, 2i+1) for i < min(T2, K/2). The real
    gains [Re c, Im c] of the C slabs (_relay_gains) times the table give
    the unscaled rows sum_c c_c W_c per draw, laid out (t, Re/Im, k). Column
    K of every row is zero: _whitened_stats puts the row's received value
    there, so the product is already the layout it needs.
    """
    w = d.weights.transpose(2, 1, 0)                          # (R, T, K)
    k = d.k
    if params.variant == "gnaf1":
        i = np.arange(min(params.t2, k // 2))
        a0 = np.zeros((1,) + w.shape[1:], dtype=np.complex128)
        a0[0, i, 2 * i] = 1.0
        a0[0, i, 2 * i + 1] = 1j
        w = np.concatenate([w, a0])
    c = len(w)
    table = np.zeros((2, c, params.t2, 2, k + 1))
    table[0, :, :, 0, :k] = w.real
    table[0, :, :, 1, :k] = w.imag
    table[1, :, :, 0, :k] = -w.imag
    table[1, :, :, 1, :k] = w.real
    # the width is spelled out: a relay-free table has no entries to infer it
    return table.reshape(2 * c, params.t2 * 2 * (k + 1))


def _relay_gains(params: ProtocolParams, g0: np.ndarray, h_cols: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """[Re c, Im c] per draw, (B, 2C), for the slabs of _relay_table.

    The design columns' gains h, and for ``gnaf1`` the source's
    cooperation-phase gain relative to the front factor, c_a0 g0, in the
    last slab. Written into ``out`` when given.
    """
    b, r = h_cols.shape
    c = r + (params.variant == "gnaf1")
    out = np.empty((b, 2 * c)) if out is None else out
    out[:, :r] = h_cols.real
    out[:, c:c + r] = h_cols.imag
    if params.variant == "gnaf1":
        p, pi1, pi2, pi3 = params.p, params.pi1, params.pi2, params.pi3
        c_a0 = np.sqrt(pi2 * (pi1 * p + 1.0) / (pi3 * pi1 * p))
        # Re and Im of c_a0 g0, each one rounding, as the complex product
        np.multiply(g0.real, c_a0, out=out[:, r])
        np.multiply(g0.imag, c_a0, out=out[:, -1])
    return out


def effective_matrix(d: Design, params: ProtocolParams,
                     g0: np.ndarray, h_cols: np.ndarray) -> np.ndarray:
    """Batched model matrices M with y_clean = M @ X: the compact model.

    ``g0`` has shape (B,), ``h_cols`` (B, R) per-column effective gains
    (column_gains; (B, 0) for the relay-free design). Rows follow the
    variant's receive vector layout. Everything but the noise is folded in
    except whitening, which the caller applies. A single trial is the
    batch of one.

    The direct-link rows pair the source's real symbols with the gain
    _direct_gain; the relay rows are the realified weight table
    (_relay_table) times the draws' gains, the same table the Monte Carlo
    forms its statistics from (_whitened_stats), which never builds M.
    The relay-free design has no relay rows.
    """
    k = d.k
    parts = []
    if params.variant != "jh":
        top = np.zeros((len(g0), k // 2, k), dtype=np.complex128)
        i = np.arange(k // 2)
        a = _direct_gain(params, g0)[:, None]
        top[:, i, 2 * i] = a
        top[:, i, 2 * i + 1] = 1j * a
        parts.append(top)
    # einsum, not a GEMM: its sums do not depend on the batch size, so
    # a trial's model is the same alone and in any batch
    rows = np.einsum("bj,jn->bn", _relay_gains(params, g0, h_cols),
                     _relay_table(d, params))
    rows = rows.reshape(len(g0), params.t2, 2, k + 1)
    parts.append(params.scale * (rows[:, :, 0, :k] + 1j * rows[:, :, 1, :k]))
    return np.concatenate(parts, axis=1)


def omega_diagonals(params: ProtocolParams, rs: RelayMatrixSet,
                    g: np.ndarray,
                    ws: matkernel.Workspace | None = None) -> np.ndarray:
    """Diagonal of the noise covariance per trial, shape (B, rows).

    Valid for row-orthogonal relay sets, where the covariance is diagonal.
    The diagonal and its scratch are taken from ``ws`` when given.
    """
    ws = matkernel.Workspace() if ws is None else ws
    b = g.shape[0]
    row_energy = np.einsum("itt->it", rs.grams).real
    out = ws.array("omega", (b, params.rows))
    coop = params.rows - params.t2
    out[:, :coop] = 1.0
    power = np.abs(g, out=ws.array("omega.power", g.shape))
    np.square(power, out=power)
    power *= params.amplify
    lower = np.matmul(power, row_energy, out=out[:, coop:])       # (b, t2)
    lower += 1.0
    return out


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimResult:
    """Error statistics of one batch of draws, or of one SNR point: the
    sum of its batches. ``trials`` counts symbol decisions.

    ``fallbacks`` counts grouped-ML draws re-decided by joint ML;
    ``erasures`` counts draws the ZF receiver erased (every group of such
    a draw is also scored as an error).

    Every field is a function of the config alone, so that equal configs
    give equal results for any worker count: the benchmark compares
    results for equality, and acceptance c10 the bytes written from them.
    Nothing that varies from run to run (seconds, resource usage) may
    become a field.
    """

    snr_db: float
    trials: int
    errors: int
    receiver: str
    seed: int
    design: str
    fallbacks: int = 0
    erasures: int = 0

    def __add__(self, other: SimResult) -> SimResult:
        """The counts of two parts of one SNR point added; the point's
        fields (SNR, receiver, seed, design) are this part's. Both parts
        must be of the same point: nothing checks it."""
        return replace(self, trials=self.trials + other.trials,
                       errors=self.errors + other.errors,
                       fallbacks=self.fallbacks + other.fallbacks,
                       erasures=self.erasures + other.erasures)

    @property
    def ser(self) -> float:
        return self.errors / self.trials if self.trials else 0.0

    @property
    def ci95(self) -> tuple[float, float]:
        """95% Wilson score interval of the SER.

        Unlike the Wald interval it keeps a positive upper end at zero errors.
        """
        if not self.trials:
            return (0.0, 0.0)
        n, k, z = self.trials, self.errors, 1.96
        z2 = z * z
        half = z * np.sqrt(z2 + 4.0 * k * (n - k) / n)
        den = 2.0 * (n + z2)
        return (max((2.0 * k + z2 - half) / den, 0.0),
                min((2.0 * k + z2 + half) / den, 1.0))


@dataclass(frozen=True)
class SimConfig:
    """Everything a Monte Carlo run depends on; fully determines the output.

    Its fields are checked here, once. ValueError is raised for an unknown
    variant or receiver, an empty SNR grid, a point without a finite
    positive linear power (snr_power), ``pi`` other than three finite
    positive numbers (kept as floats), a count that check_count refuses,
    and a codebook whose K differs from the design's. The no-relay
    baseline is the relay-free design (designs.direct_design) under the
    ``direct`` variant.

    Its defaults are the only run defaults: the command line passes only
    the fields a run config sets. Each output records every field but
    ``design``, ``codebook`` and ``workers``, in this order; leaving out
    ``workers`` keeps the output the same for any worker count.
    """

    design: Design
    codebook: Codebook
    variant: str = "gnaf2"
    pi: tuple[float, float, float] = (1.0, 1.0, 1.0)
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 10000
    receiver: str = "joint-ml"     # joint-ml | grouped-ml | zf | mmse
    seed: int = 0
    batch_size: int = 4096
    workers: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; known: {VARIANTS}")
        if self.receiver not in _RECEIVERS:
            raise ValueError(f"unknown receiver {self.receiver!r}; known: {_RECEIVERS}")
        if not self.snr_db:
            raise ValueError("SNR grid has no points")
        for v in self.snr_db:
            snr_power(v)
        pi = self.pi
        if not (isinstance(pi, (tuple, list)) and len(pi) == 3 and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                and 0 < v < math.inf for v in pi)):
            raise ValueError("pi must be three finite positive power "
                             f"fractions, got {pi!r}")
        object.__setattr__(self, "pi", tuple(float(v) for v in pi))
        check_count("trials", self.trials, 0)
        check_count("seed", self.seed, 0)
        check_count("batch_size", self.batch_size, 1)
        if self.workers is not None:
            check_count("workers", self.workers, 1)
        if self.codebook.k != self.design.k:
            raise ValueError(f"codebook has K={self.codebook.k} real symbols, "
                             f"but design {self.design.family!r} has "
                             f"K={self.design.k}")

    def resolved_workers(self) -> int:
        """Requested worker count: ``workers``, or 1 when it is None."""
        return self.workers if self.workers is not None else 1


def snr_power(snr_db: float) -> float:
    """Linear power 10^(snr_db / 10) of an SNR point in dB.

    Raises ValueError unless the point and its power are finite and the
    power is positive, so a grid the simulator cannot run is refused
    before any batch.
    """
    v = float(snr_db)
    try:
        p = 10.0 ** (v / 10.0)
    except OverflowError:
        p = np.inf
    if not (np.isfinite(v) and 0.0 < p < np.inf):
        raise ValueError(f"SNR point {snr_db!r} dB has no finite positive "
                         "linear power")
    return p


# Bytes of complex128 model matrices one block of draws may hold; it sets
# the memory a batch needs apart from its per-draw random inputs. Set by
# measurement on the three benchmark sweeps (2 cores, medians of three
# 8-second runs per value): sweep-joint peaked at 42.9, 44.5, 47.0, 52.5
# and 63.9 MiB RSS at 256 KiB, 512 KiB, 1 MiB, 2 MiB and 4 MiB (63.0 MiB
# with whole batches), and its solve time was lowest at 512 KiB and 1 MiB;
# on the other two sweeps 256 and 512 KiB ran as fast as whole batches.
# Blocks no longer build those matrices (_whitened_stats), but they keep
# the size measured with them, so the draws per block, and with them the
# bits of every product, stay as they were.
_BLOCK_BYTES = 1 << 19


def _run_batch(cfg: SimConfig, rs: RelayMatrixSet, snr_idx: int,
               batch_idx: int, n: int, ws: matkernel.Workspace | None = None):
    """Simulate one batch of trials; ``rs`` is the design's relay set.

    The batch's randomness is drawn first, whole and in its keyed order:
    channels, symbols, noise. The design's weight table (_relay_table), the
    draws' real gains and their noise diagonal on the cooperation rows
    (omega_diagonals) are laid out once per batch, as is the table of the
    receiver that runs: the candidate table (ml_table) of an ML receiver,
    the slicer levels (slicer_table) of a linear one. The sufficient
    statistics (z, G) of the whitened model and the decisions then run
    over equal blocks of draws, as few as keep each block's model matrices,
    were they built, within ``_BLOCK_BYTES``. (z, G) are formed once per
    block, from the gains and without the model (_whitened_stats), and
    every detector and the grouped-ML decodability check read them.

    The arrays of batch or block size are taken from the workspace ``ws``
    (a fresh one when None): the draws, symbols and decisions, the gains
    and noise diagonal, the kernel's rows and [G | z], and the ML
    coefficients and scores. A worker passes one workspace to all its
    batches, so after its first batch it faults in no fresh memory for
    them. Left to numpy's own allocation, being short-lived: each group's
    symbol draw, the gathers of G's entries for ML and the decodability
    check (numpy gathers only into a new array), and the linear
    receivers' elimination. A block's (z, G) are valid until the next
    block.

    Returns the SimResult of the batch's draws: the point's SNR, receiver,
    seed and design, with ``trials`` the batch's decisions and its own
    errors, fallbacks and erasures.
    """
    ws = matkernel.Workspace() if ws is None else ws
    params = protocol_params(cfg.design, snr_power(cfg.snr_db[snr_idx]),
                             cfg.variant, cfg.pi, rs=rs)
    book = cfg.codebook
    rng = make_rng(cfg.seed, snr_idx, batch_idx)

    # channels
    z = crandn(rng, n, 2 * params.r + 1, out=ws.array("channels", (n, 2 * params.r + 1, 2)))
    g0, f, g = z[:, 0], z[:, 1:params.r + 1], z[:, params.r + 1:]

    # symbols
    tx = ws.array("tx", (n, book.n_groups), np.intp)
    for gi, sz in enumerate(book.group_sizes):
        tx[:, gi] = rng.integers(0, sz, size=n)
    x = book.assemble(tx, out=ws.array("x", (n, book.k)))

    # unit white noise on the whitened receive vector
    noise = crandn(rng, n, params.rows, out=ws.array("noise", (n, params.rows, 2)))

    per_block = max(1, _BLOCK_BYTES // (16 * params.rows * book.k))
    blocks = -(-n // per_block)
    edges = [n * i // blocks for i in range(blocks + 1)]
    dec = ws.array("decisions", (n, book.n_groups), np.intp)
    fallbacks = 0
    table = _relay_table(cfg.design, params)
    gains = _relay_gains(params, g0, column_gains(rs, f, g, ws),
                         ws.array("gains", (n, table.shape[0])))
    omega = omega_diagonals(params, rs, g, ws)[:, params.rows - params.t2:]
    if cfg.receiver in ("joint-ml", "grouped-ml"):
        receiver_table = ml_table(book, grouped=cfg.receiver == "grouped-ml")
    else:
        receiver_table = slicer_table(book)
    for blk in map(slice, edges, edges[1:]):
        dec[blk], block_fallbacks = _detect(cfg.receiver, *_whitened_stats(
            params, x[blk], noise[blk], g0[blk], table, gains[blk], omega[blk], ws),
            book, receiver_table, ws)
        fallbacks += block_fallbacks

    return SimResult(cfg.snr_db[snr_idx], n * book.n_groups, int(np.sum(dec != tx)),
                     cfg.receiver, cfg.seed, cfg.design.family, fallbacks,
                     int(np.sum(np.any(dec < 0, axis=1))))


def _whitened_stats(params: ProtocolParams, x: np.ndarray, noise: np.ndarray,
                    g0: np.ndarray, table: np.ndarray, gains: np.ndarray,
                    omega: np.ndarray, ws: matkernel.Workspace | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Sufficient statistics (z, G) of a block of draws, from their gains.

    For the whitened compact model y = M X + noise of every draw, with
    ``x`` (B, K) the sent symbols and ``noise`` (B, rows) unit white noise,
    returns z = Re(M^H y) (B, K) and G = Re(M^H M) (B, K, K) without
    forming M. ``gains`` (B, 2C) are the draws' _relay_gains for the weight
    ``table`` (_relay_table), and ``omega`` (B, T2) the noise covariance's
    diagonal on the cooperation rows (omega_diagonals; the other rows'
    entries are 1). The relay-free design has no relay rows: its table,
    gains and omega have no columns, and (z, G) are the direct link's.

    The relay rows (t, Re/Im, k) are one real product of the gains with
    the table, each scaled by scale / sqrt(omega_t); their received values
    go in column K, and one product of the rows with [rows | y] gives G
    and z. The direct-link rows, a d s_i / d x for row i (_direct_gain),
    are orthogonal with squared norm |a|^2 per column, so they add |a|^2 I
    to G and |a|^2 x + realify(conj(a) n_top) to z without being formed;
    ``jh`` has no such rows.

    The relay rows, [G | z] and the temporaries of K or more entries per
    draw are taken from ``ws`` (a fresh one when None): z and G are views
    of the workspace's [G | z], valid until the next call that is given
    the same workspace.
    """
    ws = matkernel.Workspace() if ws is None else ws
    b, k = x.shape
    t2 = params.t2
    aug = np.matmul(gains, table, out=ws.array("stats.rows", (b, table.shape[1])))
    aug = aug.reshape(b, t2, 2 * (k + 1))
    weight = np.sqrt(omega, out=ws.array("stats.weight", omega.shape))
    np.divide(params.scale, weight, out=weight)
    aug *= weight[:, :, None]
    aug = aug.reshape(b, 2 * t2, k + 1)
    y = np.einsum("bjk,bk->bj", aug[..., :k], x, out=ws.array("stats.y", (b, 2 * t2)))
    y += noise[:, params.rows - t2:].view(np.float64)
    aug[..., k] = y
    zg = np.matmul(np.swapaxes(aug[..., :k], -1, -2), aug,
                   out=ws.array("stats.zg", (b, k, k + 1)))
    z, gram = zg[..., k], zg[..., :k]
    if params.variant != "jh":
        a = _direct_gain(params, g0)
        a2 = a.real ** 2 + a.imag ** 2
        # G's diagonal, a writable strided view of [G | z]
        zg.reshape(b, k * (k + 1))[:, ::k + 2] += a2[:, None]
        z += np.multiply(a2[:, None], x, out=ws.array("stats.direct", (b, k)))
        z += np.multiply(np.conj(a)[:, None], noise[:, :k // 2],
                         out=ws.array("stats.matched", (b, k // 2), np.complex128)
                         ).view(np.float64)
    return z, gram


def _detect(receiver: str, z: np.ndarray, gram: np.ndarray, book: Codebook,
            table: MlTable | SlicerTable | None = None,
            ws: matkernel.Workspace | None = None
            ) -> tuple[np.ndarray, int]:
    """Decisions of ``receiver`` on a block's (z, G), and its fallback count.

    ``receiver`` is one of _RECEIVERS (SimConfig refuses any other), and
    ``table`` the batch's table of ``book`` for the receiver that runs:
    ml_table, joint or grouped, for ML, slicer_table for ZF and MMSE.
    Grouped ML re-decides the draws whose whitened model couples its
    groups by joint ML, which then builds its own table; such draws are
    rare, and no pinned sweep has one. The decodability check's zero test
    is relative to G's largest entry, which for the positive semidefinite
    G is the largest on its diagonal. The ML coefficients and scores are
    taken from ``ws``.
    """
    if receiver == "joint-ml":
        return ml_joint(z, gram, book, table, ws), 0
    if receiver == "grouped-ml":
        dec = ml_grouped(z, gram, book, table, ws)
        # grouped ML is exact only where the whitened model decomposes
        worst = gram_crossterm(gram, book.groups)
        # G's diagonal is a sum of squares, so 0 is a neutral start
        scale = np.max(np.diagonal(gram, axis1=1, axis2=2), axis=1, initial=0.0)
        coupled = worst > matkernel.zero_threshold(scale)
        if np.any(coupled):
            dec[coupled] = ml_joint(z[coupled], gram[coupled], book)
        return dec, int(np.sum(coupled))
    if receiver == "zf":
        return zf_detect(z, gram, book, table), 0
    return mmse_detect(z, gram, book, table), 0


# Seconds the caller waits, for the task counter's lock or for a helper's
# message, between looks for a helper that died. A claim holds the lock for
# microseconds, so a wait this long for it means its holder is gone or
# stalled; either wait goes on for as long as no helper has died.
_HELPER_WAIT = 1.0


def _exited(proc) -> RuntimeError:
    """The error for a helper that exited without sending its batches."""
    return RuntimeError(f"Monte Carlo helper {proc.pid} exited before it "
                        f"sent its batches (exit code {proc.exitcode})")


def _check_helpers(helpers) -> None:
    """Raise _exited for a dead helper among the caller's (process, pipe)
    ``helpers``: one with a nonzero exit code, since a helper exits with 0
    only after it has released the lock and sent its message. A helper
    killed holding the lock leaves it held for good, so that every later
    claim would wait without end."""
    for proc, _ in helpers:
        if proc.exitcode:
            raise _exited(proc)


def _drain(cfg: SimConfig, rs: RelayMatrixSet,
           tasks: list[tuple[int, int, int]], counter, helpers=()) -> list:
    """Claim tasks from the shared counter and run them until none is left.

    Returns the (task index, SimResult of the batch) pairs this process
    ran. Its batches share one workspace, dropped on return. The caller
    passes its ``helpers``, which _check_helpers looks through whenever a
    claim has waited _HELPER_WAIT for the lock.
    """
    done, ws = [], matkernel.Workspace()
    lock = counter.get_lock()
    while True:
        while not lock.acquire(timeout=_HELPER_WAIT):
            _check_helpers(helpers)
        try:
            index = counter.value
            counter.value = index + 1
        finally:
            lock.release()
        if index >= len(tasks):
            return done
        done.append((index, _run_batch(cfg, rs, *tasks[index], ws)))


def _helper(sender, *drain_args) -> None:
    """A helper process's body: drain tasks (_drain) and send back its
    parts, or the exception that stopped it, on its one-way pipe. A
    helper that exits otherwise sends nothing, which the caller reports."""
    try:
        sender.send(_drain(*drain_args))
    except Exception as exc:
        sender.send(exc)


def run_monte_carlo(cfg: SimConfig) -> list[SimResult]:
    """Symbol error rates over the SNR grid.

    Deterministic given (seed, config): batches are keyed by (seed, snr
    index, batch index), and each SNR point's SimResult is the sum of its
    batches' SimResults (_run_batch), added left to right in batch order,
    so the result is independent of worker count and execution order. Each
    batch decides its draws in blocks of bounded memory (_run_batch), so
    ``cfg.batch_size`` sets how many draws a task holds, not how large its
    model, statistics and score arrays get.

    The relay set is built once, by the clro check. The caller counts as
    one of min(``cfg.resolved_workers()``, usable cores, batches) workers;
    with one, the batches run here in order. With more, a thread forks
    the other workers, one helper process each, from the forkserver
    (started on first use, with numpy preloaded) while the caller already
    claims batches from a shared counter, which the helpers then claim
    from too. If the caller ran every batch, it waits for the helpers to
    be started and stops them unread; otherwise it reads one message from
    each helper's pipe: its parts, or the exception that stopped it,
    which is raised here. A helper that exits without sending, killed for
    instance, raises RuntimeError naming its pid and exit code; so does
    one killed holding the counter's lock, which no other worker can then
    take, within _HELPER_WAIT of a claim or a read that waits on it.
    Either way every helper is stopped and reaped before this call
    returns.

    Raises ValueError before any batch runs for a design the batched model
    would get wrong: a design that does not match the variant (the
    ``direct`` variant runs exactly the relay-free designs), odd K (the
    source pairs real symbols into complex ones), or a failed CLRO check,
    under which whitening by the diagonal would be wrong.
    """
    from . import verifier  # deferred: verifier depends on this module
    if (cfg.design.r == 0) != (cfg.variant == "direct"):
        raise ValueError(f"design {cfg.design.family!r} with variant {cfg.variant!r}: only "
                         "the direct design runs the no-relay baseline")
    if cfg.design.k % 2:
        raise ValueError(f"design has odd K={cfg.design.k}: the source "
                         "has no complex pairing of its real symbols")
    rep, rs = verifier.clro_relay_set(cfg.design)
    if not rep.passed:
        raise ValueError(f"design fails clro (witness {rep.witness}, margin "
                         f"{rep.margin:.3e}); the simulator whitens with the "
                         "noise covariance's diagonal only")
    if cfg.receiver == "grouped-ml":
        if len(cfg.design.partition) < 2:
            raise ValueError("grouped-ml needs a design with a nontrivial "
                             "symbol partition")
        if tuple(map(tuple, cfg.codebook.groups)) != tuple(map(tuple, cfg.design.partition)):
            raise ValueError("grouped-ml codebook groups must match the "
                             "design partition")
        rep = verifier.check_group_decodable(cfg.design.weights, cfg.design.partition)
        if not rep.passed:
            raise ValueError(f"design is not group decodable: {rep.witness}")

    if cfg.trials <= 0:
        return []
    n_batches = -(-cfg.trials // cfg.batch_size)
    tasks = [(si, bi, min(cfg.batch_size, cfg.trials - bi * cfg.batch_size))
             for si in range(len(cfg.snr_db)) for bi in range(n_batches)]
    processes = min(cfg.resolved_workers(), len(os.sched_getaffinity(0)), len(tasks))
    if processes > 1:
        import multiprocessing as mp
        from concurrent.futures import ThreadPoolExecutor
        ctx = mp.get_context("forkserver")
        # Preload numpy only, never dstc: on 3.11 the server ignores the
        # caller's sys.path, so a dstc preload fails silently when dstc is on
        # sys.path but not on PYTHONPATH (as under bench/run.py), and a server
        # that did find a dstc could give the helpers another copy than the
        # caller runs. Helpers import dstc through the caller's sys.path,
        # which the standard library sends with each new child.
        ctx.set_forkserver_preload(["numpy"])
        counter = ctx.Value("q", 0)
        helpers = []        # (process, receiving end), appended as each starts

        def start() -> None:
            for _ in range(processes - 1):
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_helper, daemon=True,
                                   args=(sender, cfg, rs, tasks, counter))
                proc.start()
                helpers.append((proc, receiver))
                # the helper holds the one other send end, so its exit ends the pipe
                sender.close()

        try:
            # start() returns once the server has forked every helper, which
            # on a process's first sweep waits for the new server to import
            # numpy: a thread starts them so that the caller works meanwhile
            with ThreadPoolExecutor(1) as starter:
                starting = starter.submit(start)
                done = _drain(cfg, rs, tasks, counter, helpers)
                starting.result()
            # if the caller ran every task no helper holds one, and the
            # finally stops them all, unread
            if len(done) < len(tasks):
                for proc, receiver in helpers:
                    # a helper that waits on a lock a dead one holds never sends
                    while not receiver.poll(_HELPER_WAIT):
                        _check_helpers(helpers)
                    try:
                        part = receiver.recv()
                    except EOFError:
                        proc.join()
                        part = _exited(proc)
                    if isinstance(part, Exception):
                        raise part
                    done += part
        finally:
            for proc, _ in helpers:
                proc.terminate()
                proc.join()
        parts = [part for _, part in sorted(done)]
    else:
        ws = matkernel.Workspace()
        parts = [_run_batch(cfg, rs, *t, ws) for t in tasks]
    # left to right in batch order, as the serial loop runs them
    return [sum(parts[i + 1:i + n_batches], parts[i])
            for i in range(0, len(parts), n_batches)]


def results_to_csv(results: list[SimResult], meta: dict | None = None) -> str:
    """CSV with the standard header row; metadata embedded as '#' comments."""
    buf = io.StringIO()
    if meta:
        for key in sorted(meta):
            buf.write(f"# {key}: {meta[key]}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["snr_db", "trials", "errors", "ser", "ci_low", "ci_high",
                "fallbacks", "erasures"])
    for r in results:
        lo, hi = r.ci95
        w.writerow([f"{r.snr_db:g}", r.trials, r.errors,
                    f"{r.ser:.10g}", f"{lo:.10g}", f"{hi:.10g}",
                    r.fallbacks, r.erasures])
    return buf.getvalue()
