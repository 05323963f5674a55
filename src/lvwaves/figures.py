"""Point-set emission for the standard illustration cases.

Produces CSV sample sets (two zero-growth lines, the implicit curve
F(u, v) = 0, and barrier lines where applicable) plus a JSON manifest with
the exact levels.  No plotting is done here; the files are meant for
external tooling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .model import TwoSpeciesParams
from .nbarrier import BoundSide, conic_classify, construct_barrier
from .profiles import _write_csv
from .rational import format_number
from .report import write_json

#: Lines per axis of the grid whose lines are intersected with F(u, v) = 0.
CURVE_GRID_LINES = 161

_ONE = Fraction(1)
_FIG1_BASE = dict(
    d1=_ONE, d2=_ONE, sigma1=_ONE, sigma2=_ONE,
    c11=_ONE, c12=Fraction(1, 2), c21=Fraction(2, 3), c22=_ONE,
)
_FIG1_CASES = {
    "a": (Fraction(1, 2), Fraction(4), 2.5),
    "b": (Fraction(2), Fraction(3, 20), 2.5),
    "c": (Fraction(2), 7.5 + 3 * math.sqrt(6), 2.5),
    "d": (Fraction(2), 7.5 - 3 * math.sqrt(6), 2.5),
    "e": (Fraction(2), Fraction(3), 2.5),
    "f": (Fraction(1, 2), Fraction(4), 8.0),
}

_BARRIER_BASE = dict(
    d1=_ONE, sigma1=_ONE, sigma2=_ONE,
    c11=_ONE, c12=Fraction(2), c21=Fraction(3), c22=_ONE,
)
_FIG2_CASES = {
    "a": (Fraction(17), Fraction(18), Fraction(2)),
    "b": (Fraction(17), Fraction(5), Fraction(2)),
    "c": (Fraction(17), Fraction(18), Fraction(2, 3)),
    "d": (Fraction(17), Fraction(18), Fraction(1, 2)),
}
_FIG3_CASES = {
    "a": (Fraction(17), Fraction(18), Fraction(2)),
    "b": (Fraction(17), Fraction(5), Fraction(2)),
    "c": (Fraction(17), Fraction(33), Fraction(2, 3)),
    "d": (Fraction(17), Fraction(18), Fraction(1, 2)),
}


def _line_points(a, b, c, u_max: float, n: int = 201) -> list[tuple[float, float]]:
    """First-quadrant samples of a u + b v = c."""
    pts = []
    for u in np.linspace(0.0, u_max, n):
        v = (float(c) - float(a) * u) / float(b)
        if v >= 0:
            pts.append((float(u), float(v)))
    return pts


def _grid_line_roots(a: float, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Both roots of a x^2 + b x + c = 0 for each entry of b, c, ascending
    per row; NaN where the roots are complex.

    Uses q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 with roots q/a and c/q, which
    avoids cancellation between b and the square root (Numerical Recipes,
    section 5.6).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        return np.sort(np.stack([q / a, c / q], axis=1), axis=1)


def implicit_curve_points(
    p: TwoSpeciesParams, alpha, beta, u_max: float, v_max: float
) -> list[tuple[float, float]]:
    """Points of F(u, v) = 0 on the lines of a square grid of
    :data:`CURVE_GRID_LINES` lines per axis over the window.

    On each line u = const, F is a quadratic in v with leading coefficient
    -beta c22; on each line v = const, a quadratic in u with leading
    coefficient -alpha c11.  Both are strictly negative, so each line meets
    the curve at the real roots of a true quadratic.  Returns the roots strictly inside (0, v_max) on the
    u-lines, then those strictly inside (0, u_max) on the v-lines, ascending
    along each line.
    """
    alpha, beta = float(alpha), float(beta)
    s1, s2, c11, c12, c21, c22 = (
        float(x) for x in (p.sigma1, p.sigma2, p.c11, p.c12, p.c21, p.c22)
    )
    us = np.linspace(0.0, u_max, CURVE_GRID_LINES)
    vs = np.linspace(0.0, v_max, CURVE_GRID_LINES)
    cross = beta * c21 + alpha * c12
    v_roots = _grid_line_roots(
        -beta * c22, beta * s2 - cross * us, alpha * us * (s1 - c11 * us)
    )
    u_roots = _grid_line_roots(
        -alpha * c11, alpha * s1 - cross * vs, beta * vs * (s2 - c22 * vs)
    )
    pts = [
        (float(u), float(v)) for u, row in zip(us, v_roots) for v in row if 0.0 < v < v_max
    ]
    pts += [
        (float(u), float(v)) for v, row in zip(vs, u_roots) for u in row if 0.0 < u < u_max
    ]
    return pts


def emit_figure_data(which: str, case: str, out_dir) -> dict:
    """Write the CSV point sets for one bundled illustration case; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if which == "fig1":
        if case not in _FIG1_CASES:
            raise ValueError(f"fig1 case must be one of {sorted(_FIG1_CASES)}")
        alpha, beta, window = _FIG1_CASES[case]
        p = TwoSpeciesParams(**_FIG1_BASE)
        barrier = None
    elif which in ("fig2", "fig3"):
        cases = _FIG2_CASES if which == "fig2" else _FIG3_CASES
        if case not in cases:
            raise ValueError(f"{which} case must be one of {sorted(cases)}")
        alpha, beta, d2 = cases[case]
        p = TwoSpeciesParams(d2=d2, **_BARRIER_BASE)
        window = 2.5
        side = BoundSide.LOWER if which == "fig2" else BoundSide.UPPER
        barrier = construct_barrier(p, alpha, beta, side)
    else:
        raise ValueError("which must be fig1, fig2, or fig3")

    uv = ["u", "v"]
    _write_csv(out / "line1.csv", uv, _line_points(p.c11, p.c12, p.sigma1, float(window)))
    _write_csv(out / "line2.csv", uv, _line_points(p.c21, p.c22, p.sigma2, float(window)))
    _write_csv(
        out / "conic.csv", uv, implicit_curve_points(p, alpha, beta, float(window), float(window))
    )
    conic = conic_classify(p, alpha, beta)

    manifest = {
        "which": which,
        "case": case,
        "alpha": format_number(alpha),
        "beta": format_number(beta),
        "params": {k: format_number(v) for k, v in p.to_dict().items()},
        "conic": {
            "kind": conic.kind.value,
            "discriminant": float(conic.discriminant),
        },
        "files": ["line1.csv", "line2.csv", "conic.csv"],
    }
    if barrier is not None:
        for name, level, weight in (
            ("barrier_lambda1.csv", barrier.lambda1, (alpha * p.d1, beta * p.d2)),
            ("barrier_lambda2.csv", barrier.lambda2, (alpha * p.d1, beta * p.d2)),
            ("barrier_eta.csv", barrier.eta, (alpha, beta)),
        ):
            u_reach = float(level) / float(weight[0])
            _write_csv(
                out / name, uv, _line_points(weight[0], weight[1], level, min(u_reach, 5.0))
            )
            manifest["files"].append(name)
        manifest["barrier"] = {
            "side": barrier.side.value,
            "case_id": barrier.case_id,
            "lambda1": format_number(barrier.lambda1),
            "lambda2": format_number(barrier.lambda2),
            "eta": format_number(barrier.eta),
        }
    write_json(out / "manifest.json", manifest)
    return manifest
