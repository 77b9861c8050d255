"""Two-phase amplify-and-forward relay channel and its Monte Carlo harness.

Protocol: the source broadcasts a T1-symbol vector (phase 1); each relay
applies its single matrix (optionally to the conjugated reception) and
forwards the result over T2 uses (phase 2); the destination stacks what it
heard in both phases. Two equivalent signal models are implemented:

* ``two_phase``: the physical protocol, step by step;
* ``compact``: the stacked real-linear model y = M X + W, with M built for
  a whole batch of channels at once by ``effective_matrix`` from the
  per-column gains g_i*f_i (conjugating relays g_i*conj(f_i), see
  ``column_gains``), and W the relay-amplified noise plus destination
  noise. There is one such model: the Monte Carlo runs it on batches and
  a single trial is the batch of one.

Fed identical noise draws the two modes agree to machine precision; that
equivalence is the core correctness oracle for the model and is pinned in
the acceptance suite, on single trials and on batches.

Variants: ``gnaf1`` (source also transmits in phase 2 through A0), ``gnaf2``
and ``gnaf3`` (source silent in phase 2), ``jh`` (no direct link: the
destination only observes phase 2), ``direct`` (no relays at all, baseline).

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
tasks. A batch draws all its randomness at once, then builds, whitens and
decides its draws in equal blocks whose model matrices fit
``_BLOCK_BYTES``, and joint ML scores the codebook in fixed chunks of
candidates; so the memory of a task grows with its batch size only by the
per-draw random inputs, and with the codebook not at all. The calling
process is one of the workers. With more than one, no
more than the usable cores or the task count, it starts one pool of
helpers that receive the config, the relay set, the task list and a
shared task counter once, at start-up. Helpers are forked from the
standard library's forkserver, which the first pooled sweep of a process
starts with numpy preloaded; later sweeps fork from the same warm server,
so a helper only imports dstc before it takes a task. The server keeps
the environment of its start (the BLAS thread variables among it); later
changes to the caller's environment do not reach the helpers. A thread
starts the pool, so the caller runs batches while the server is started
and forks the helpers. The caller and every helper claim tasks from the
counter until none is left. Helpers left without a task are stopped, not
awaited, once the pool is up; every helper exits before the call
returns, and the server reaps it.
"""

from __future__ import annotations

import csv
import io
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import matkernel
from .designs import Design, RelayMatrixSet, relay_matrix_set
from .receivers import (Codebook, gram_crossterm, ml_grouped, ml_joint,
                        mmse_detect, sufficient_stats, zf_detect)

VARIANTS = ("gnaf1", "gnaf2", "gnaf3", "jh", "direct")


def make_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, stream labels)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian, unit variance.

    Each complex draw is a consecutive (real, imaginary) pair of standard
    normals, scaled in place and viewed as complex128.
    """
    z = rng.standard_normal(tuple(shape) + (2,))
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
        if not (self.p > 0 and self.pi1 > 0 and self.pi2 > 0 and self.pi3 > 0):
            raise ValueError("powers must be positive")

    @property
    def amplify(self) -> float:
        """Relay amplification power factor pi3*P/(pi1*P+1)."""
        return self.pi3 * self.p / (self.pi1 * self.p + 1.0)

    @property
    def scale(self) -> float:
        """Front factor sqrt(pi3*pi1*P^2/(pi1*P+1)) of the compact model."""
        return float(np.sqrt(self.pi3 * self.pi1 * self.p ** 2 / (self.pi1 * self.p + 1.0)))

    @property
    def rows(self) -> int:
        """Length of the destination's receive vector: T1 + T2, T2 without
        the direct link (``jh``), T1 without relays (``direct``)."""
        return {"direct": self.t1, "jh": self.t2}.get(self.variant, self.t1 + self.t2)

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
              rs: RelayMatrixSet | None) -> np.ndarray:
    """Covariance of the stacked noise W, dense, for one trial.

    The identity, plus relay_noise_cov on the trailing T2 (cooperation)
    rows. Row-orthogonal relay matrices make it diagonal; for any other
    relay set the lower block is dense, and this function still returns it
    exactly. The Monte Carlo uses only the diagonal (omega_diagonals) and
    refuses designs that fail CLRO.
    """
    omega = np.eye(params.rows, dtype=np.complex128)
    if params.variant != "direct":
        omega[-params.t2:, -params.t2:] += relay_noise_cov(params, rs, ch.g)
    return omega


def _stack_noise(params: ProtocolParams, ch: ChannelRealization,
                 rs: RelayMatrixSet | None, noise: NoiseDraw) -> np.ndarray:
    """The compact model's W for a given elementary noise draw."""
    if params.variant == "direct":
        return noise.w1
    amp = np.sqrt(params.amplify)
    relay_noise = np.zeros(params.t2, dtype=np.complex128)
    for i, (m, cj) in enumerate(zip(rs.matrices, rs.conj)):
        vi = np.conj(noise.v[i]) if cj else noise.v[i]
        relay_noise += ch.g[i] * (m @ vi)
    lower = amp * relay_noise + noise.w2
    if params.variant == "jh":
        return lower
    return np.concatenate([noise.w1, lower])


def simulate_trial(d: Design | None, params: ProtocolParams,
                   ch: ChannelRealization, s: np.ndarray,
                   mode: str = "compact", *, noise: NoiseDraw,
                   rs: RelayMatrixSet | None = None) -> np.ndarray:
    """One received vector, via the compact model or the physical protocol.

    The explicit ``noise`` draw (see draw_noise) makes the two modes
    comparable on identical randomness.
    """
    s = np.asarray(s, dtype=np.complex128)
    if d is not None and rs is None:
        rs = relay_matrix_set(d)

    if mode == "compact":
        h = None if rs is None else column_gains(rs, ch.f, ch.g)[None]
        m = effective_matrix(d, params, np.array([ch.g0]), h, k=2 * s.size)[0]
        x = np.stack([s.real, s.imag], axis=-1).ravel()
        return m @ x + _stack_noise(params, ch, rs, noise)

    if mode != "two_phase":
        raise ValueError(f"unknown mode {mode!r}")

    p, pi1, pi2 = params.p, params.pi1, params.pi2
    y1 = np.sqrt(pi1 * p) * ch.g0 * s + noise.w1
    if params.variant == "direct":
        return y1
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

def _add_pairing(block: np.ndarray, w: np.ndarray) -> None:
    """Add w_b * d s_i / d x to row i of ``block[b]``, in place.

    The canonical pairing s_i = x_2i + j x_2i+1 makes row i of the source's
    contribution w at column 2i and j w at column 2i+1, zero elsewhere;
    ``block`` is (B, rows, K) and only its first min(rows, K/2) rows are
    touched (the truncated identity A0 of gnaf1 pairs fewer rows).
    """
    i = np.arange(min(block.shape[1], block.shape[2] // 2))
    block[:, i, 2 * i] += w[:, None]
    block[:, i, 2 * i + 1] += (1j * w)[:, None]


def column_gains(rs: RelayMatrixSet, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Effective gain per design column: g_i f_i, conjugating relays g_i f_i^*.

    ``f`` and ``g`` hold the relay link gains in relay order on their last
    axis, (..., R); the result has the same shape, in design-column order.
    """
    h = np.empty(np.shape(g), dtype=np.complex128)
    h[..., list(rs.columns)] = g * np.where(rs.conj, np.conj(f), f)
    return h


def effective_matrix(d: Design | None, params: ProtocolParams,
                     g0: np.ndarray, h_cols: np.ndarray,
                     k: int | None = None) -> np.ndarray:
    """Batched model matrices M with y_clean = M @ X: the compact model.

    ``g0`` has shape (B,), ``h_cols`` (B, R) per-column effective gains
    (column_gains; unused by ``direct``). Rows follow the variant's receive vector layout.
    Everything but the noise is folded in except whitening, which the
    caller applies. A single trial is the batch of one.

    The pairing rows are zeros with two entries per row set, the relay
    rows come from one einsum, and the two blocks are joined. The join
    costs a copy but leaves the two freed blocks below the model, where
    the detector's temporaries fit. Filled into one preallocated array,
    the model left those temporaries on top of the heap, which glibc then
    returned to the system after every block of draws: a serial
    ``sweep-joint`` sweep took about 30,000 minor page faults instead of
    about 8,000.
    """
    if d is not None:
        k = d.k
    if k is None:
        raise ValueError("need a design or an explicit symbol count")
    if d is None and params.variant != "direct":
        raise ValueError("a design is required for relay variants")
    scale = params.scale
    p, pi1, pi2, pi3 = params.p, params.pi1, params.pi2, params.pi3
    parts = []
    if params.variant != "jh":
        top = np.zeros((len(g0), k // 2, k), dtype=np.complex128)
        c_top = np.sqrt((pi1 * p + 1.0) / (pi3 * p))
        _add_pairing(top, scale * c_top * g0)
        parts.append(top)
    if params.variant != "direct":
        # weights as (R, T, K): with the gains' R first, this einsum runs
        # faster than from (K, T, R)
        w = np.ascontiguousarray(d.weights.transpose(2, 1, 0))
        bottom = np.einsum("br,rtk->btk", h_cols, w)
        bottom *= scale
        if params.variant == "gnaf1":
            # A0 is the T2 x T1 truncated identity: it pairs the first rows
            c_a0 = np.sqrt(pi2 * (pi1 * p + 1.0) / (pi3 * pi1 * p))
            _add_pairing(bottom, scale * c_a0 * g0)
        parts.append(bottom)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def omega_diagonals(params: ProtocolParams, rs: RelayMatrixSet,
                    g: np.ndarray) -> np.ndarray:
    """Diagonal of the noise covariance per trial, shape (B, rows).

    Valid for row-orthogonal relay sets, where the covariance is diagonal.
    """
    b = g.shape[0]
    row_energy = np.einsum("itt->it", rs.grams).real
    lower = 1.0 + params.amplify * (np.abs(g) ** 2) @ row_energy   # (b, t2)
    if params.variant == "jh":
        return lower
    return np.concatenate([np.ones((b, params.t1)), lower], axis=1)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimResult:
    """Per-SNR error statistics. ``trials`` counts symbol decisions.

    ``fallbacks`` counts grouped-ML draws re-decided by joint ML;
    ``erasures`` counts draws the ZF receiver erased (every group of such
    a draw is also scored as an error).
    """

    snr_db: float
    trials: int
    errors: int
    receiver: str
    seed: int
    design: str
    fallbacks: int = 0
    erasures: int = 0

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

    An empty SNR grid, or a point without a finite positive linear power
    (snr_power), raises ValueError.
    """

    design: Design | None
    codebook: Codebook
    receiver: str                  # joint-ml | grouped-ml | zf | mmse
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    variant: str = "gnaf2"
    pi: tuple[float, float, float] = (1.0, 1.0, 1.0)
    batch_size: int = 4096
    workers: int | None = None

    def __post_init__(self):
        if not self.snr_db:
            raise ValueError("the SNR grid is empty")
        for v in self.snr_db:
            snr_power(v)
        check_count("trials", self.trials, 0)
        check_count("seed", self.seed, 0)
        check_count("batch_size", self.batch_size, 1)
        if self.workers is not None:
            check_count("workers", self.workers, 1)

    def resolved_workers(self) -> int:
        """Requested worker count, capped by the DSTC_MAX_WORKERS env var."""
        requested = self.workers if self.workers is not None else 1
        env = os.environ.get("DSTC_MAX_WORKERS")
        if env:
            try:
                cap = int(env)
            except ValueError:
                raise ValueError(f"DSTC_MAX_WORKERS must be an integer, "
                                 f"got {env!r}") from None
            requested = min(requested, cap)
        return max(1, requested)


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


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


_RECEIVERS = ("joint-ml", "grouped-ml", "zf", "mmse")


def _params_for(cfg: SimConfig, p: float, rs: RelayMatrixSet | None) -> ProtocolParams:
    if cfg.variant == "direct":
        t1 = cfg.codebook.k // 2
        return ProtocolParams(p=p, pi1=cfg.pi[0], pi2=cfg.pi[1], pi3=cfg.pi[2],
                              t1=t1, t2=1, r=0, q=0, variant="direct")
    return protocol_params(cfg.design, p, cfg.variant, cfg.pi, rs=rs)


# Bytes of complex128 model matrices one block of draws may hold; it sets
# the memory a batch needs apart from its per-draw random inputs. Set by
# measurement on the three benchmark sweeps (2 cores, medians of three
# 8-second runs per value): sweep-joint peaked at 42.9, 44.5, 47.0, 52.5
# and 63.9 MiB RSS at 256 KiB, 512 KiB, 1 MiB, 2 MiB and 4 MiB (63.0 MiB
# with whole batches), and its solve time was lowest at 512 KiB and 1 MiB;
# on the other two sweeps 256 and 512 KiB ran as fast as whole batches.
_BLOCK_BYTES = 1 << 19


def _run_batch(cfg: SimConfig, rs: RelayMatrixSet | None, snr_idx: int,
               batch_idx: int, n: int):
    """Simulate one batch of trials; ``rs`` is the design's relay set.

    The batch's randomness is drawn first, whole and in its keyed order:
    channels, symbols, noise. The model, its whitening, the received
    vectors and the decisions then run over equal blocks of draws, as few
    as keep each block's model matrices within ``_BLOCK_BYTES``. So apart
    from the per-draw random inputs and decisions, the memory of a batch
    does not grow with its size.

    Returns (symbol errors, decisions, fallbacks, erasures).
    """
    p = snr_power(cfg.snr_db[snr_idx])
    d = cfg.design
    params = _params_for(cfg, p, rs)
    book = cfg.codebook
    rng = make_rng(cfg.seed, snr_idx, batch_idx)

    # channels
    if cfg.variant == "direct":
        g0, g, h_cols = crandn(rng, n), None, None
    else:
        z = crandn(rng, n, 2 * params.r + 1)
        g0, f, g = z[:, 0], z[:, 1:params.r + 1], z[:, params.r + 1:]
        h_cols = column_gains(rs, f, g)

    # symbols
    tx = np.zeros((n, book.n_groups), dtype=np.intp)
    for gi, sz in enumerate(book.group_sizes):
        tx[:, gi] = rng.integers(0, sz, size=n)
    x = book.assemble(tx)

    # unit white noise on the whitened receive vector
    noise = crandn(rng, n, params.rows)

    per_block = max(1, _BLOCK_BYTES // (16 * params.rows * book.k))
    blocks = -(-n // per_block)
    edges = [n * i // blocks for i in range(blocks + 1)]
    dec = np.empty((n, book.n_groups), dtype=np.intp)
    fallbacks = 0
    for blk in map(slice, edges, edges[1:]):
        # clean model and whitening
        m = effective_matrix(d, params, g0[blk], None if h_cols is None else h_cols[blk],
                             k=book.k)
        if cfg.variant != "direct":
            m *= (1.0 / np.sqrt(omega_diagonals(params, rs, g[blk])))[:, :, None]
        y = np.einsum("brk,bk->br", m, x[blk])
        y += noise[blk]
        dec[blk], block_fallbacks = _detect(cfg.receiver, y, m, book)
        fallbacks += block_fallbacks

    errors = int(np.sum(dec != tx))
    erasures = int(np.sum(np.any(dec < 0, axis=1)))
    return errors, n * book.n_groups, fallbacks, erasures


def _detect(receiver: str, y: np.ndarray, m: np.ndarray,
            book: Codebook) -> tuple[np.ndarray, int]:
    """Decisions of ``receiver`` on a block of draws, and its fallback count."""
    if receiver == "joint-ml":
        return ml_joint(y, m, book), 0
    if receiver == "grouped-ml":
        dec = ml_grouped(y, m, book)
        # grouped ML is exact only where the whitened model decomposes
        _, gram = sufficient_stats(y, m)
        worst = gram_crossterm(gram, book.groups)
        coupled = worst > matkernel.zero_threshold(np.max(np.abs(gram), axis=(1, 2)))
        if np.any(coupled):
            dec[coupled] = ml_joint(y[coupled], m[coupled], book)
        return dec, int(np.sum(coupled))
    if receiver == "zf":
        return zf_detect(y, m, book), 0
    if receiver == "mmse":
        return mmse_detect(y, m, book, noise_var=0.5), 0
    raise ValueError(f"unknown receiver {receiver!r}; known: {_RECEIVERS}")


def _drain(cfg: SimConfig, rs: RelayMatrixSet | None,
           tasks: list[tuple[int, int, int]], counter) -> list:
    """Claim tasks from the shared counter and run them until none is left.

    Returns the (task index, batch result) pairs this process ran.
    """
    done = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(tasks):
            return done
        done.append((index, _run_batch(cfg, rs, *tasks[index])))


# A helper's (config, relay set, tasks, counter), set once by _init_worker.
# Only pool helpers assign it; the calling process never does.
_worker_args = None


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _helper_drain() -> list:
    return _drain(*_worker_args)


def _start_helpers(ctx, helpers: int, args: tuple, started: list) -> None:
    """Start a pool of ``helpers`` processes and hand each one drain job.

    Appends (pool, jobs) to ``started``, or the exception raised instead.
    """
    try:
        pool = ctx.Pool(helpers, _init_worker, args)
        started.append((pool, [pool.apply_async(_helper_drain) for _ in range(helpers)]))
    except BaseException as exc:
        started.append(exc)


def run_monte_carlo(cfg: SimConfig) -> list[SimResult]:
    """Symbol error rates over the SNR grid.

    Deterministic given (seed, config): batches are keyed by (seed, snr
    index, batch index) and reduced by integer sums per SNR point, so the
    result is independent of worker count and execution order. Each
    batch decides its draws in blocks of bounded memory (_run_batch), so
    ``cfg.batch_size`` sets how many draws a task holds, not how large its
    model, statistics and score arrays get.

    The relay set is built once, by the clro check. The caller counts as
    one of min(``cfg.resolved_workers()``, usable cores, batches) workers;
    with one, the batches run here in order. With more, a thread forks a
    pool of the other workers from the forkserver (started on first use,
    with numpy preloaded) while the caller already claims batches from a
    shared counter, which the helpers then claim from too. If the caller
    ran every batch, it waits for the pool to be up and stops the
    helpers, some of them maybe still starting; otherwise their parts are
    collected. Either way every helper exits within this call.

    Raises ValueError before any batch runs for a design the batched model
    would get wrong: a design (or none) that does not match the variant,
    odd K (the source pairs real symbols into complex ones), or a failed
    CLRO check, under which whitening by the diagonal would be wrong.
    """
    from . import verifier  # deferred: verifier depends on this module
    if cfg.receiver not in _RECEIVERS:
        raise ValueError(f"unknown receiver {cfg.receiver!r}; known: {_RECEIVERS}")
    tag = cfg.design.family if cfg.design else "direct"
    if (cfg.design is None) != (cfg.variant == "direct"):
        raise ValueError(f"design {tag!r} with variant {cfg.variant!r}: only "
                         "the direct design runs the no-relay baseline")
    rs = None
    if cfg.design is not None:
        if cfg.design.k % 2:
            raise ValueError(f"design has odd K={cfg.design.k}: the source "
                             "has no complex pairing of its real symbols")
        rep, rs = verifier.clro_relay_set(cfg.design)
        if not rep.passed:
            raise ValueError(f"design fails clro (witness {rep.witness}, margin "
                             f"{rep.margin:.3e}); the simulator whitens with the "
                             "noise covariance's diagonal only")
    if cfg.receiver == "grouped-ml":
        if cfg.design is None or len(cfg.design.partition) < 2:
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
        import threading
        ctx = mp.get_context("forkserver")
        # Preload numpy only, never dstc: on 3.11 the server ignores the
        # caller's sys.path, so a dstc preload fails silently when dstc is on
        # sys.path but not on PYTHONPATH (as under bench/run.py), and a server
        # that did find a dstc could give the helpers another copy than the
        # caller runs. Helpers import dstc through the caller's sys.path,
        # which the standard library sends with each new child.
        ctx.set_forkserver_preload(["numpy"])
        counter = ctx.Value("q", 0)
        # Pool() returns once the server has forked every helper, which on
        # a process's first sweep waits for the new server to import numpy:
        # a thread starts the pool so that the caller works meanwhile.
        started = []
        starter = threading.Thread(target=_start_helpers, args=(
            ctx, processes - 1, (cfg, rs, tasks, counter), started))
        starter.start()
        try:
            done = _drain(cfg, rs, tasks, counter)
        except BaseException:
            starter.join()
            if isinstance(started[0], tuple):
                started[0][0].terminate()
            raise
        starter.join()
        if isinstance(started[0], BaseException):
            raise started[0]
        pool, jobs = started[0]
        with pool:
            # if the caller ran every task no helper holds one, and leaving
            # the block stops them all, those still starting included
            if len(done) < len(tasks):
                for job in jobs:
                    done += job.get()
                pool.close()
                pool.join()
        parts = [part for _, part in sorted(done)]
    else:
        parts = [_run_batch(cfg, rs, *t) for t in tasks]

    results = []
    for si in range(len(cfg.snr_db)):
        point = parts[si * n_batches:(si + 1) * n_batches]
        errors, decisions, fallbacks, erasures = (sum(col) for col in zip(*point))
        results.append(SimResult(cfg.snr_db[si], decisions, errors, cfg.receiver,
                                 cfg.seed, tag, fallbacks, erasures))
    return results


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
