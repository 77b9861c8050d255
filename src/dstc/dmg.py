"""Closed-form diversity-multiplexing tradeoff bounds for the relay protocol.

All curves are piecewise linear in the multiplexing gain r on [0, 1]; (x)+
means max(x, 0) exactly. ``d_lower`` is the composite bound: the better of
no-cooperation (1 - r) and the rate-corrected transmit-diversity curve, with
the branch switch at r = R^2/((R+1)^2 - R).

``d_code`` assumes one block geometry: T1 source symbols then T2 relay
uses with T1 = R*T2, so the code rate T1/(T1+T2) is R/(R+1), as for the
golden CDA with two relays (T1 = 4 symbols, T2 = 2 uses, rate 2/3). Other
families run other geometries (pciod: T1 = T2 = R, rate 1/2; Toeplitz:
T2 = T1 + R - 1), so their rate-corrected curves differ from the one
emitted here; the CSV columns do not say which geometry they assume.
Every bound takes the relay count R >= 1 and refuses anything smaller.
"""

from __future__ import annotations

import csv
import io


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"multiplexing gain must be in [0, 1], got {r}")
    return r


def _check_relays(n_relays: int) -> int:
    if n_relays < 1:
        raise ValueError(f"need at least one relay, got {n_relays}")
    return n_relays


def d_naf(r: float, n_relays: int) -> float:
    """Non-orthogonal amplify-and-forward bound R(1-2r)+ + (1-r)+."""
    r, n_relays = _check_r(r), _check_relays(n_relays)
    return n_relays * max(1.0 - 2.0 * r, 0.0) + max(1.0 - r, 0.0)


def d_star(r: float, n_relays: int) -> float:
    """Transmit diversity bound (R+1)(1-r) of the two-product channel."""
    r, n_relays = _check_r(r), _check_relays(n_relays)
    return (n_relays + 1) * (1.0 - r)


def d_code(r: float, n_relays: int) -> float:
    """Rate-corrected bound d*(r/R_stc) = (R+1)(1 - r(R+1)/R)+.

    Assumes the golden-CDA geometry: T1 = R*T2 symbols per T1+T2 uses
    (T1 = 4, T2 = 2 for two relays), so the code rate R_stc = R/(R+1)
    stretches the curve to zero at r = R/(R+1). A family with another T1
    and T2 has another R_stc and another curve.
    """
    r, n_relays = _check_r(r), _check_relays(n_relays)
    return (n_relays + 1) * max(1.0 - r * (n_relays + 1) / n_relays, 0.0)


def d_lower(r: float, n_relays: int) -> float:
    """Composite lower bound max(1 - r, d_code(r))."""
    return max(1.0 - _check_r(r), d_code(r, n_relays))


def crossover(n_relays: int) -> float:
    """Multiplexing gain where no-cooperation overtakes the coded bound."""
    n_relays = _check_relays(n_relays)
    return n_relays ** 2 / ((n_relays + 1) ** 2 - n_relays)


def emit_curves(n_relays: int, n_samples: int) -> str:
    """CSV of all bounds on a uniform r-grid over [0, 1]."""
    _check_relays(n_relays)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r", "d_naf", "d_star", "d_code", "d_lower", "no_coop"])
    for i in range(n_samples):
        r = i / (n_samples - 1)
        w.writerow([f"{r:.10g}",
                    f"{d_naf(r, n_relays):.10g}",
                    f"{d_star(r, n_relays):.10g}",
                    f"{d_code(r, n_relays):.10g}",
                    f"{d_lower(r, n_relays):.10g}",
                    f"{1.0 - r:.10g}"])
    return buf.getvalue()
