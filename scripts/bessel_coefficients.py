#!/usr/bin/env python3
"""Generate the coefficient module of the Bessel evaluator in ``kernels.py``.

Usage::

    python scripts/bessel_coefficients.py            # write the module
    python scripts/bessel_coefficients.py --check    # exit 1 unless it is up to date

Every polynomial is the Chebyshev interpolant of its function on an interval
[a, b], computed with mpmath at 50 digits and written as monomial
coefficients, lowest degree first, in the variable v = (s - a)/(b - a) of
[0, 1], rounded once to the nearest double (Trefethen, *Approximation
Theory and Approximation Practice*; the split into regions follows Cephes
``j0.c``/``j1.c`` and A&S 9.1.10-11, 9.2.5-9.2.10):

- ``NEAR`` on x < NEAR_X, in s = t = x^2 on [0, NEAR_X^2]:
  J0 = 1 + t p(v), J1 = x (1/2 + t p(v)),
  Y0 = (2/pi) ln(x/2) J0 + p(v) and Y1 = (2/pi) ln(x/2) J1 - 2/(pi x) + x p(v);
- ``TABLE`` on NEAR_X <= x < FAR_X, in s = x: one polynomial of J or Y
  itself per interval [i, i + 1), i = NEAR_X, ..., FAR_X - 1;
- ``FAR_P``/``FAR_Q`` on x >= FAR_X, in s = (FAR_X/x)^2 on [0, 1]: the
  Hankel amplitude/phase form J = sqrt(2/(pi x)) (P cos w - Q sin w),
  Y = sqrt(2/(pi x)) (P sin w + Q cos w), w = x - (2 nu + 1) pi/4, with
  P = p(v) and Q = (FAR_X/x) q(v).

The result depends on mpmath alone, so ``--check`` compares it with the
committed module bit for bit.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path

import mpmath as mp

MODULE = Path(__file__).resolve().parent.parent / "src" / "tracemap" / "_bessel_coeffs.py"
NEAR_X, FAR_X = 4, 16
NEAR_DEGREE, TABLE_DEGREE, FAR_DEGREE = 11, 11, 6
mp.mp.dps = 50


def chebyshev_monomials(f, a, b, degree: int) -> list[float]:
    """Monomial coefficients in v on [0, 1] of f's interpolant at the
    degree + 1 Chebyshev points of the first kind on [a, b]."""
    a, b = mp.mpf(a), mp.mpf(b)
    n = degree + 1
    angles = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    values = [f((a + b) / 2 + (b - a) / 2 * mp.cos(t)) for t in angles]
    cheb = [2 * mp.fsum(v * mp.cos(j * t) for v, t in zip(values, angles)) / n for j in range(n)]
    cheb[0] /= 2
    mono = [mp.mpf(0)] * n
    prev, cur = [], [mp.mpf(1)]  # T_{j-1}(u) and T_j(u), u = 2v - 1, as monomials in v
    for j, c in enumerate(cheb):
        for i, m in enumerate(cur):
            mono[i] += c * m
        nxt = [-m for m in cur] + [mp.mpf(0)]  # u T_j
        for i, m in enumerate(cur):
            nxt[i + 1] += 2 * m
        if j:  # T_{j+1} = 2u T_j - T_{j-1}; T_1 = u
            nxt = [2 * m for m in nxt]
            for i, m in enumerate(prev):
                nxt[i] -= m
        prev, cur = cur, nxt
    return [float(m) for m in mono]


def bessel(kind: str, nu: int):
    return (lambda x: mp.besselj(nu, x)) if kind == "J" else (lambda x: mp.bessely(nu, x))


def near_part(kind: str, nu: int):
    """The polynomial part p of the near form, as a function of t = x^2."""
    def part(t):
        x = mp.sqrt(t)
        if kind == "J":
            return (mp.besselj(0, x) - 1) / t if nu == 0 else (mp.besselj(1, x) / x - mp.mpf(1) / 2) / t
        regular = mp.bessely(nu, x) - 2 / mp.pi * mp.log(x / 2) * mp.besselj(nu, x)
        return regular if nu == 0 else (regular + 2 / (mp.pi * x)) / x
    return part


def far_part(nu: int, which: str):
    """P or Q / (FAR_X/x) of the Hankel form, as a function of z = (FAR_X/x)^2."""
    def part(z):
        x = FAR_X / mp.sqrt(z)
        w = x - (2 * nu + 1) * mp.pi / 4
        amp = mp.sqrt(mp.pi * x / 2)
        j, y = mp.besselj(nu, x), mp.bessely(nu, x)
        if which == "P":
            return amp * (j * mp.cos(w) + y * mp.sin(w))
        return amp * (y * mp.cos(w) - j * mp.sin(w)) / mp.sqrt(z)
    return part


def polynomial(f, a, b, degree: int, indent: str, key: str = "") -> list[str]:
    """One coefficient tuple, after ``key``, as source lines of at most 100 columns."""
    cells = textwrap.wrap(", ".join(repr(m) for m in chebyshev_monomials(f, a, b, degree)), 100 - len(indent) - 4)
    return [f"{indent}{key}(", *(f"{indent}    {line}" for line in cells), f"{indent}),"]


def render() -> str:
    names = [("J", 0), ("J", 1), ("Y", 0), ("Y", 1)]
    lines = [
        '"""Coefficients of the fixed-degree Bessel evaluator in ``kernels.py``.',
        "",
        "Generated by ``scripts/bessel_coefficients.py`` with mpmath; do not edit.",
        "Each polynomial lists monomial coefficients, lowest degree first, in the",
        "variable of [0, 1] that maps its interval; see that script for the forms.",
        '"""',
        "",
        f"NEAR_X = {float(NEAR_X)!r}",
        f"FAR_X = {float(FAR_X)!r}",
        "",
        "NEAR = {",
    ]
    for kind, nu in names:
        lines += polynomial(near_part(kind, nu), 0, NEAR_X ** 2, NEAR_DEGREE, "    ", f"{kind + str(nu)!r}: ")
    lines += ["}", "", "TABLE = {"]
    for kind, nu in names:
        lines.append(f"    {kind + str(nu)!r}: (")
        for a in range(NEAR_X, FAR_X):
            lines += polynomial(bessel(kind, nu), a, a + 1, TABLE_DEGREE, "        ")
        lines.append("    ),")
    lines.append("}")
    for which in ("P", "Q"):
        lines += ["", f"FAR_{which} = {{"]
        for nu in (0, 1):
            lines += polynomial(far_part(nu, which), 0, 1, FAR_DEGREE, "    ", f"{nu}: ")
        lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed module, do not write it")
    args = parser.parse_args()
    text = render()
    if args.check:
        if MODULE.read_text() != text:
            print(f"{MODULE} differs from its regenerated text", file=sys.stderr)
            return 1
        print(f"{MODULE} is up to date")
        return 0
    MODULE.write_text(text)
    print(f"wrote {MODULE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
