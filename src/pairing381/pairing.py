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
from .curve import g1_subgroup_check, g2_subgroup_check
from .fields import X1, _method, kernel, pow_public
from .tower import X2, X12, Fp12El

_STEP_OUT = (X2, X2, X2, (X2, X2, X2))    # new T and the line (z0, z3, z5)


@kernel("dbl_step", X2, X2, X2, X1, X1, out=_STEP_OUT)
def _dbl_step(o, X, Y, Z, xp, yp):
    """Double T = (X:Y:Z) on the twist and evaluate the tangent at (xp, yp).

    Returns the new coordinates and the line as (z0, z3, z5) slot values.
    """
    mul, sqr, add, sub, xi = o.mul2, o.sqr2, o.add2, o.sub2, o.xi2
    B = sqr(Y)
    C = sqr(Z)
    J = sqr(X)
    A2 = sub(sub(sqr(add(X, Y)), J), B)    # 2XY
    E = o.g2_mb3(C)                        # 3 b' Z^2 = 12 xi Z^2
    F = add(add(E, E), E)
    X3 = mul(A2, sub(B, F))
    E2 = sqr(E)
    t = add(add(E2, E2), E2)
    t = add(t, t)
    t = add(t, t)                          # 12 E^2
    Y3 = sub(sqr(add(B, F)), t)
    H = sub(sub(sqr(add(Y, Z)), B), C)     # 2YZ
    BH = mul(B, H)
    Z3 = add(BH, BH)
    Z3 = add(Z3, Z3)
    l0 = xi(o.neg2(o.mul_fp(H, yp)))
    l3 = sub(E, B)
    t3j = add(add(J, J), J)
    l5 = o.mul_fp(t3j, xp)
    return X3, Y3, Z3, (l0, l3, l5)


@kernel("add_step", X2, X2, X2, X2, X2, X1, X1, out=_STEP_OUT)
def _add_step(o, X, Y, Z, xq, yq, xp, yp):
    """Mixed-add the affine twist point (xq, yq) into T and evaluate the chord."""
    mul, sqr, add, sub = o.mul2, o.sqr2, o.add2, o.sub2
    th = sub(Y, mul(yq, Z))
    lm = sub(X, mul(xq, Z))
    t1 = sqr(th)
    t2 = sqr(lm)
    t3 = mul(lm, t2)                       # lambda^3
    t4 = mul(Z, t1)
    t5 = mul(X, t2)
    dd = sub(sub(add(t3, t4), t5), t5)
    X3 = mul(lm, dd)
    Y3 = sub(mul(th, sub(t5, dd)), mul(t3, Y))
    Z3 = mul(Z, t3)
    l0 = o.xi2(o.mul_fp(lm, yp))
    l3 = sub(mul(th, xq), mul(lm, yq))
    l5 = o.neg2(o.mul_fp(th, xp))
    return X3, Y3, Z3, (l0, l3, l5)


@kernel("sparse_mul", X12, (X2, X2, X2), out=X12)
def _sparse_mul(o, f, line):
    """f times a line with slots (z0, z3, z5) only: 3 + 5 + 6 = 14 Fp2 muls."""
    mul, add, sub, xi = o.mul2, o.add2, o.sub2, o.xi2
    a0, b1, b2 = line
    f0, f1 = f
    fa = (mul(f0[0], a0), mul(f0[1], a0), mul(f0[2], a0))
    c0, c1, c2 = f1
    p11 = mul(c1, b1)
    p22 = mul(c2, b2)
    pm = mul(add(c1, c2), add(b1, b2))
    fb = (xi(sub(sub(pm, p11), p22)),
          add(mul(c0, b1), xi(p22)),
          add(mul(c0, b2), p11))
    mid = o.fp6_mul(o.fp6_add(f0, f1), line)
    return (o.fp6_add(fa, o.fp6_nonres(fb)),
            o.fp6_sub(o.fp6_sub(mid, fa), fb))


@kernel("unitary", X12, out=X12)
def _unitary(o, f):
    """f^(p^6 - 1) = conj(f) / f, the first step of the easy part."""
    return o.fp12_mul(o.fp12_conj(f), o.fp12_inv(f))


_unitary_of = _method("unitary", inverse=True)   # zero raises, uncharged


def _prep_pair(p, q):
    """Boundary validation; returns affine (p, q) or None for a degenerate pair."""
    if p.is_identity() or q.is_identity():
        return None
    with p.engine.uncounted():
        if not (p.on_curve() and g1_subgroup_check(p)):
            raise ValueError("left pairing input invalid")
        if not (q.on_curve() and g2_subgroup_check(q)):
            raise ValueError("right pairing input invalid")
        return p.normalized(), q.normalized()


def multi_miller_loop(pairs) -> Fp12El:
    """Shared-accumulator Miller loop; pairs must be validated and affine."""
    if not pairs:
        raise ValueError("no pairs")
    e = pairs[0][0].engine
    o = e.raw_ops(*[fe for p, q in pairs
                    for fe in (p.x, p.y, q.x.c0, q.x.c1, q.y.c0, q.y.c1)])
    run = o.apply
    f = Fp12El.one(e)._raw()
    pts = [(p.x.val, p.y.val, q.x._raw(), q.y._raw()) for p, q in pairs]
    ts = [(xq, yq, f[0][0]) for _, _, xq, yq in pts]     # Z = f's Fp2 one
    for bit in bin(params.ABS_U)[3:]:
        f = run("fp12_sqr", f)
        for i, (xp, yp, _, _) in enumerate(pts):
            *ts[i], line = run("dbl_step", *ts[i], xp, yp)
            f = run("sparse_mul", f, line)
        if bit == "1":
            for i, (xp, yp, xq, yq) in enumerate(pts):
                *ts[i], line = run("add_step", *ts[i], xq, yq, xp, yp)
                f = run("sparse_mul", f, line)
    return Fp12El._wrap(o, run("fp12_conj", f))


def miller_loop(p, q) -> Fp12El:
    pq = _prep_pair(p, q)
    if pq is None:
        return Fp12El.one(p.engine)
    return multi_miller_loop([pq])


def _exp_abs_u(run, x):
    """x^|u| by cyclotomic square-and-multiply (63 squarings, 5 multiplies)."""
    acc = x
    for bit in bin(params.ABS_U)[3:]:
        acc = run("fp12_cyclo_sqr", acc)
        if bit == "1":
            acc = run("fp12_mul", acc, x)
    return acc


def final_exp(f: Fp12El) -> Fp12El:
    """Map a Miller value into the order-q target group.

    Easy part (p^6 - 1)(p^2 + 1), then the hard part as the exponent
    (u-1)^2 (u+p) (u^2 + p^2 - 1) + 3, a fixed cube of the reduced-pairing
    hard part, built from five |u|-exponentiations. Inversions after the
    easy part are conjugations.
    """
    t0 = _unitary_of(f)
    o = t0.engine.raw_ops(*t0._leaves())
    run, k = o.apply, t0.engine.tower.frob       # k[power]: Frobenius constants
    t0 = t0._raw()
    m = run("fp12_mul", t0, run("frob2", t0, k[2]))
    t1 = run("fp12_conj", run("fp12_mul", _exp_abs_u(run, m), m))    # m^(u-1)
    t2 = run("fp12_conj", run("fp12_mul", _exp_abs_u(run, t1), t1))  # ^(u-1)^2
    t3 = run("fp12_mul", run("fp12_conj", _exp_abs_u(run, t2)),
             run("frob1", t2, k[1]))                                 # ^(u+p)
    t4 = _exp_abs_u(run, _exp_abs_u(run, t3))
    t4 = run("fp12_mul", t4, run("frob2", t3, k[2]))
    t4 = run("fp12_mul", t4, run("fp12_conj", t3))           # ^(u^2+p^2-1)
    out = run("fp12_mul", run("fp12_mul", t4, run("fp12_cyclo_sqr", m)), m)
    return Fp12El._wrap(o, out)


def pairing(p, q) -> Fp12El:
    """e(p, q): Miller loop then final exponentiation."""
    return multi_pairing([(p, q)])


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
    if mode == "sharedmlfe":
        return final_exp(multi_miller_loop(live))
    acc = None
    for pq in live:
        v = multi_miller_loop([pq])
        v = final_exp(v) if mode == "naive" else v
        acc = v if acc is None else acc * v
    return acc if mode == "naive" else final_exp(acc)
