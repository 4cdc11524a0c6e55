"""Optimal-ate pairing: Miller loop over |u| plus cyclotomic final exponentiation.

The loop parameter is the (negative) curve parameter u, so the Miller output
is conjugated once at the end. Loop state T stays in homogeneous projective
coordinates over the twist; line evaluations land in three of the twelve
tower slots (z-degrees 0, 3 and 5 in the z-degree grid) and are folded into
the accumulator with a 14-multiplication sparse product.

Per-step costs, all in Fp2 operations plus Fp scalings by the G1 coordinates:

  doubling step   2M + 7S + 4 Fp muls   (shared X^2 feeds both the point and
                                         the line; output scaled by 4)
  addition step  11M + 2S + 4 Fp muls
  sparse fold    14M
  accumulator squaring 12M

Any Fp2 (or even-degree subfield) factor of a line is annihilated by the
easy part of the final exponentiation, which is what licenses the scalings
and the dropped vertical lines.
"""

from . import params
from .fields import pow_public
from .tower import Fp2El, Fp6El, Fp12El


def _twelve_xi(v: Fp2El) -> Fp2El:
    """12*(1+alpha)*v by additions, matching the group-law constant strategy."""
    t = v + v
    t = t + v
    t = t + t
    t = t + t
    return t.mul_by_xi()


def _dbl_step(X, Y, Z, xp, yp):
    """Double T = (X:Y:Z) on the twist and evaluate the tangent at (xp, yp).

    Returns the new coordinates and the line as (z0, z3, z5) slot values.
    """
    B = Y.square()
    C = Z.square()
    J = X.square()
    A2 = (X + Y).square() - J - B          # 2XY
    E = _twelve_xi(C)                      # 3 b' Z^2
    F = E + E + E
    X3 = A2 * (B - F)
    E2 = E.square()
    t = E2 + E2 + E2
    t = t + t
    t = t + t                              # 12 E^2
    Y3 = (B + F).square() - t
    H = (Y + Z).square() - B - C           # 2YZ
    BH = B * H
    Z3 = BH + BH
    Z3 = Z3 + Z3
    l0 = (-H.mul_fp(yp)).mul_by_xi()
    l3 = E - B
    t3j = J + J + J
    l5 = t3j.mul_fp(xp)
    return X3, Y3, Z3, (l0, l3, l5)


def _add_step(X, Y, Z, xq, yq, xp, yp):
    """Mixed-add the affine twist point (xq, yq) into T and evaluate the chord."""
    th = Y - yq * Z
    lm = X - xq * Z
    t1 = th.square()
    t2 = lm.square()
    t3 = lm * t2                           # lambda^3
    t4 = Z * t1
    t5 = X * t2
    dd = t3 + t4 - t5 - t5
    X3 = lm * dd
    Y3 = th * (t5 - dd) - t3 * Y
    Z3 = Z * t3
    l0 = lm.mul_fp(yp).mul_by_xi()
    l3 = th * xq - lm * yq
    l5 = -th.mul_fp(xp)
    return X3, Y3, Z3, (l0, l3, l5)


def _sparse_mul(f: Fp12El, line) -> Fp12El:
    """f times a line with slots (z0, z3, z5) only: 3 + 5 + 6 = 14 Fp2 muls."""
    a0, b1, b2 = line
    f0, f1 = f.c0, f.c1
    fa = Fp6El(f0.c0 * a0, f0.c1 * a0, f0.c2 * a0)
    c0, c1, c2 = f1.c0, f1.c1, f1.c2
    p11 = c1 * b1
    p22 = c2 * b2
    pm = (c1 + c2) * (b1 + b2)
    fb = Fp6El((pm - p11 - p22).mul_by_xi(),
               c0 * b1 + p22.mul_by_xi(),
               c0 * b2 + p11)
    mid = (f0 + f1) * Fp6El(a0, b1, b2)
    return Fp12El(fa + fb.mul_by_nonres(), mid - fa - fb)


def _prep_pair(p, q):
    """Boundary validation; returns affine (p, q) or None for a degenerate pair."""
    from .curve import g1_subgroup_check, g2_subgroup_check

    e = p.engine
    if p.is_identity() or q.is_identity():
        return None
    with e.uncounted():
        if not (p.on_curve() and g1_subgroup_check(p)):
            raise ValueError("left pairing input invalid")
        if not (q.on_curve() and g2_subgroup_check(q)):
            raise ValueError("right pairing input invalid")
        if p.z != e.fp(1):
            p = p.to_affine()
        if q.z != Fp2El.one(e):
            q = q.to_affine()
    return p, q


def multi_miller_loop(pairs) -> Fp12El:
    """Shared-accumulator Miller loop; pairs must be validated and affine."""
    if not pairs:
        raise ValueError("no pairs")
    e = pairs[0][0].engine
    f = Fp12El.one(e)
    one2 = Fp2El.one(e)
    ts = [(q.x, q.y, one2) for _, q in pairs]
    for bit in bin(params.ABS_U)[3:]:
        f = f.square()
        for i, (p, q) in enumerate(pairs):
            X, Y, Z, line = _dbl_step(*ts[i], p.x, p.y)
            ts[i] = (X, Y, Z)
            f = _sparse_mul(f, line)
        if bit == "1":
            for i, (p, q) in enumerate(pairs):
                X, Y, Z, line = _add_step(*ts[i], q.x, q.y, p.x, p.y)
                ts[i] = (X, Y, Z)
                f = _sparse_mul(f, line)
    return f.conjugate()


def miller_loop(p, q) -> Fp12El:
    pq = _prep_pair(p, q)
    if pq is None:
        return Fp12El.one(p.engine)
    return multi_miller_loop([pq])


def _exp_abs_u(x: Fp12El) -> Fp12El:
    """x^|u| by cyclotomic square-and-multiply (63 squarings, 5 multiplies)."""
    acc = x
    for bit in bin(params.ABS_U)[3:]:
        acc = acc.cyclotomic_square()
        if bit == "1":
            acc = acc * x
    return acc


def final_exp(f: Fp12El) -> Fp12El:
    """Map a Miller value into the order-q target group.

    Easy part (p^6 - 1)(p^2 + 1), then the hard part as the exponent
    (u-1)^2 (u+p) (u^2 + p^2 - 1) + 3, a fixed cube of the reduced-pairing
    hard part, built from five |u|-exponentiations. Inversions after the
    easy part are conjugations.
    """
    e = f.engine
    tw = e.tower
    t0 = f.conjugate() * f.inverse()
    m = t0 * tw.frobenius(t0, 2)
    t1 = (_exp_abs_u(m) * m).conjugate()          # m^(u-1)
    t2 = (_exp_abs_u(t1) * t1).conjugate()        # m^(u-1)^2
    t3 = _exp_abs_u(t2).conjugate() * tw.frobenius(t2, 1)   # ^(u+p)
    t4 = _exp_abs_u(_exp_abs_u(t3))
    t4 = t4 * tw.frobenius(t3, 2)
    t4 = t4 * t3.conjugate()                      # ^(u^2+p^2-1)
    return t4 * m.cyclotomic_square() * m


def pairing(p, q) -> Fp12El:
    """e(p, q): Miller loop then final exponentiation."""
    pq = _prep_pair(p, q)
    if pq is None:
        return Fp12El.one(p.engine)
    return final_exp(multi_miller_loop([pq]))


def gt_pow(x: Fp12El, k: int) -> Fp12El:
    """x^k in the target group by plain square-and-multiply.

    Variable-time: exponents here are public test quantities, never secrets.
    """
    if k < 0:
        return gt_pow(x.inverse(), -k)
    return pow_public(x, k) if k else Fp12El.one(x.engine)


MULTI_PAIRING_MODES = ("naive", "sharedfe", "sharedmlfe")


def multi_pairing(pairs, mode: str = "sharedmlfe") -> Fp12El:
    """Product of pairings over (P_i, Q_i) with three evaluation strategies.

    naive       n independent pairings, multiplied afterwards
    sharedfe    n Miller loops, one shared final exponentiation
    sharedmlfe  one shared-accumulator Miller loop, one final exponentiation

    All three return the same group element.
    """
    if mode not in MULTI_PAIRING_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not pairs:
        raise ValueError("no pairs")
    e = pairs[0][0].engine
    live = [pq for pq in (_prep_pair(p, q) for p, q in pairs) if pq is not None]
    if not live:
        return Fp12El.one(e)
    if mode == "naive":
        acc = None
        for pq in live:
            v = final_exp(multi_miller_loop([pq]))
            acc = v if acc is None else acc * v
        return acc
    if mode == "sharedfe":
        acc = None
        for pq in live:
            v = multi_miller_loop([pq])
            acc = v if acc is None else acc * v
        return final_exp(acc)
    return final_exp(multi_miller_loop(live))
