"""Regime classification of a parameter triple (alpha, p, s).

THEOREM mode encodes the proved verdicts directly: the low-regularity window
is invertible outright; the high-regularity window is invertible below the
critical smoothness s_c = 1 + 1/p + alpha_c and Fredholm of index -1 with
trivial kernel above it.  At s_c, and at the low window's edge s = 1/p, the
symbol touches zero at xi = 0, so THEOREM mode reads the symbol's modulus at
that touching point in both windows and calls the triple not Fredholm when
it is at most contour.FREDHOLM_TOL: the same test, on the same quantity, as
the loop's minimum modulus near either edge.  NUMERIC mode re-derives the
Fredholm flag and index from the symbol loop.  The loop's winding gives the
index of the operator on the full half-line space; in the high-regularity
window the classified operator acts on the codimension-one subspace fixed
by the boundary condition, which shifts its index down by one.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import FREDHOLM_TOL, build_loop, min_modulus, winding_number
from .errors import DomainError, NotFredholmError
from .reports import ClassificationReport
from .symbols import Regime, SpectralParams
from .transcend import alpha_c as compute_alpha_c

__all__ = ["classify"]

_BOUNDARY_TOL = 1e-9


def _bounded_window(alpha: float, p: float, s: float) -> bool:
    inv_p = 1.0 / p
    low = 2.0 * alpha - 1.0 + inv_p < s < 1.0 + inv_p
    high = 1.0 + inv_p < s < 2.0 + inv_p
    return low or high


def _inadmissible(alpha: float, p: float, s: float, reason: str) -> ClassificationReport:
    return ClassificationReport(
        regime="INADMISSIBLE",
        bounded=_bounded_window(alpha, p, s),
        notes=reason,
    )


def classify(alpha: float, p: float, s: float, mode: str = "theorem") -> ClassificationReport:
    """Classify one parameter triple; mode is theorem, numeric or both.

    The boundary value has the mirror symmetry boundary(-xi) = e^(2 pi i
    nu) conj(boundary(xi)), so |boundary| is even and xi = 0, the touching
    point THEOREM mode reads, is always a stationary point of the modulus
    whose minimum NUMERIC mode polishes."""
    mode = mode.lower() if isinstance(mode, str) else mode
    if mode not in ("theorem", "numeric", "both"):
        raise DomainError(f"unknown classification mode {mode!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError("classify requires 0 < alpha < 1")
    if not (1.0 < p < math.inf):
        raise DomainError("classify requires 1 < p < infinity")
    if not math.isfinite(s):
        raise DomainError("classify requires finite s")

    inv_p = 1.0 / p
    for boundary, tag in ((inv_p, "s = 1/p"), (1.0 + inv_p, "s = 1 + 1/p"),
                          (2.0 + inv_p, "s = 2 + 1/p")):
        if abs(s - boundary) < _BOUNDARY_TOL:
            return _inadmissible(alpha, p, s, f"{tag}: boundary smoothness value")
    if not (inv_p < s < 2.0 + inv_p):
        return _inadmissible(alpha, p, s, "s outside (1/p, 2 + 1/p)")
    if s < 1.0 + inv_p and alpha >= 0.5:
        return _inadmissible(
            alpha, p, s,
            "low-regularity window needs alpha < 1/2 "
            "(the boundary-difference reduction is unavailable otherwise)",
        )

    sp = SpectralParams(alpha, p, s)
    notes = []
    a_c = crit = None
    if sp.regime is Regime.HIGH:
        a_c = compute_alpha_c(alpha)
        crit = 1.0 + inv_p + a_c
        if alpha < 0.5:
            notes.append(
                "high regularity with alpha < 1/2: the boundary-difference "
                "reduction applies in its derivative-gauged form; verdicts unchanged"
            )

    def theorem_verdict():
        # the boundary value at xi = 0, where the symbol touches zero at
        # s = 1/p in LOW and at the critical smoothness in HIGH
        touch = abs(sp.loop_symbol.boundary(np.zeros(1))[0])
        if touch <= FREDHOLM_TOL:
            edge = "s = 1/p" if crit is None else f"critical smoothness {crit:.12g}"
            notes.append(
                f"symbol modulus {touch:.3e} at xi = 0 is within {FREDHOLM_TOL:g} "
                f"of zero ({edge}): not Fredholm"
            )
            return dict(fredholm=False)
        if sp.regime is Regime.LOW:
            return dict(fredholm=True, winding=0, index=0, kernel_trivial=True,
                        invertible=True)
        if s < crit:
            return dict(fredholm=True, winding=-1, index=0, kernel_trivial=True,
                        invertible=True)
        return dict(fredholm=True, winding=0, index=-1, kernel_trivial=True,
                    invertible=False)

    def numeric_verdict():
        loop = build_loop(sp)
        mm = min_modulus(loop)
        notes.append(f"numeric loop min modulus {mm:.3e} (tolerance {FREDHOLM_TOL:g})")
        try:
            w = winding_number(loop)
        except NotFredholmError:  # mm is at most FREDHOLM_TOL
            return dict(fredholm=False)
        shift = 0 if sp.regime is Regime.LOW else 1
        return dict(fredholm=True, winding=w, index=-w - shift,
                    kernel_trivial=None, invertible=None)

    if mode == "theorem":
        verdict = theorem_verdict()
    elif mode == "numeric":
        verdict = numeric_verdict()
        if verdict.get("fredholm") is not None and verdict["fredholm"] is True:
            notes.append("kernel-triviality and invertibility are theorem-backed "
                         "facts; numeric mode leaves them unset")
    else:
        verdict = theorem_verdict()
        numeric = numeric_verdict()
        same_fredholm = verdict.get("fredholm") == numeric.get("fredholm")
        same_index = verdict.get("index") == numeric.get("index")
        if same_fredholm and (verdict.get("fredholm") is False or same_index):
            notes.append("consistency=agree")
        else:
            notes.append(
                "consistency=disagree "
                f"(theorem fredholm={verdict.get('fredholm')} index={verdict.get('index')}, "
                f"numeric fredholm={numeric.get('fredholm')} index={numeric.get('index')})"
            )

    return ClassificationReport(
        regime=sp.regime.name,
        bounded=_bounded_window(alpha, p, s),
        alpha_c=a_c,
        critical_s=crit,
        notes="; ".join(notes),
        **verdict,
    )
