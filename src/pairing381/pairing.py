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
  prepared step        4 Fp muls        (a fixed G2 argument's stored line)
  sparse fold    14M
  accumulator squaring 12M

Any Fp2 (or even-degree subfield) factor of a line is annihilated by the
easy part of the final exponentiation, which is what licenses the scalings
and the dropped vertical lines.

The prepared step applies to a fixed G2 argument (Costello and Stebila,
"Fixed argument pairings", LATINCRYPT 2010), which only verification has:
its -G2. A line depends on the G1 point only by the Fp-linear scalings by yp
and xp, so the full steps at xp = yp = 1 give 68 stored lines (A, B, C),
derived once, uncounted, and prep_step evaluates one as (A yp, B, C xp).
pairing, miller_loop and multi_pairing on points run the full steps.
"""

from functools import partial
from typing import NamedTuple

from . import params
from .curve import (G1Point, G2Point, _entry_check, g1_subgroup_check,
                    g2_subgroup_check)
from .fields import X1, _expect, _method, kernel, pow_public, pow_raw
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


@kernel("prep_step", (X2, X2, X2), X1, X1, out=(X2, X2, X2))
def _prep_step(o, line, xp, yp):
    """A stored line (A, B, C) of a fixed G2 argument at (xp, yp)."""
    a, b, c = line
    return o.mul_fp(a, yp), b, o.mul_fp(c, xp)


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


class Prepared(NamedTuple):
    """A fixed G2 argument of the Miller loop: the affine point and its
    lines (A, B, C) in loop order, raw, for prep_step."""

    point: G2Point
    lines: tuple


def _point(q):
    """The G2 point of a pair's second entry, a point or a Prepared one."""
    return q.point if type(q) is Prepared else q


def _live_pairs(pairs) -> list:
    """Boundary validation: every pair's entry check and one engine for all,
    then, uncounted, the subgroup checks of each pair without the identity;
    returns those, affine. A Prepared entry is checked as its point."""
    if not pairs:
        raise ValueError("no pairs")
    for p, q in pairs:
        _entry_check(p, G1Point)
        _entry_check(_point(q), G2Point)
    e = pairs[0][0].engine
    e.raw_ops(*[v for p, q in pairs for v in (p, _point(q))])
    live = []
    for p, q in pairs:
        if p.is_identity() or _point(q).is_identity():
            continue
        with e.uncounted():
            if not g1_subgroup_check(p):
                raise ValueError("left pairing input invalid")
            if not g2_subgroup_check(_point(q)):
                raise ValueError("right pairing input invalid")
            live.append((p.normalized(),
                         q if type(q) is Prepared else q.normalized()))
    return live


def _lines(run, xp, yp, q, one):
    """The Miller lines of the pair ((xp, yp), q) in loop order, each from
    one counted step, for an affine point or a Prepared q: prep_step on each
    stored line, else dbl_step per bit of |u| after the leading one and
    add_step per one bit on T, which starts at q with Z = one."""
    if type(q) is Prepared:
        for line in q.lines:
            yield run("prep_step", line, xp, yp)
        return
    xq, yq, _ = q.val
    t = xq, yq, one
    for bit in bin(params.ABS_U)[3:]:
        *t, line = run("dbl_step", *t, xp, yp)
        yield line
        if bit == "1":
            *t, line = run("add_step", *t, xq, yq, xp, yp)
            yield line


def multi_miller_loop(pairs) -> Fp12El:
    """Shared-accumulator Miller loop; pairs must be validated and affine.
    A pair's second entry may be a Prepared G2 argument."""
    if not pairs:
        raise ValueError("no pairs")
    e = pairs[0][0].engine
    o = e.raw_ops(*[v for p, q in pairs for v in (p, _point(q))])
    run = o.apply
    f = Fp12El.one(e).val
    lines = [_lines(run, *p.val[:2], q, f[0][0]) for p, q in pairs]
    for bit in bin(params.ABS_U)[3:]:
        f = run("fp12_sqr", f)
        for pair in lines * (1 + (bit == "1")):   # doublings, then additions
            f = run("sparse_mul", f, next(pair))
    return Fp12El._wrap(o, run("fp12_conj", f))


def prepared_neg_g2(engine) -> Prepared:
    """-G2, negated by a counted op as verification always has, with its
    lines: those of the full steps at xp = yp = 1, derived uncounted at the
    first call for each Fp spec and backend (a spec from inject_fault() is a
    new one) and kept raw in the spec's store, as _Context keeps its
    constants."""
    q = -engine.curve.g2_gen
    store, key = q.o.store, ("neg_g2_lines", engine.backend)
    if key not in store:
        with engine.uncounted():
            one = Fp12El.one(engine).val[0][0]
            store[key] = tuple(_lines(q.o.apply, one[0], one[0], q, one))
    return Prepared(q, store[key])


def miller_loop(p, q) -> Fp12El:
    live = _live_pairs([(p, q)])
    return multi_miller_loop(live) if live else Fp12El.one(p.engine)


def _exp_u(o, x):
    """x^|u| for a raw Fp12 value x of the cyclotomic subgroup, by pow_raw:
    63 cyclotomic squarings and 5 multiplies, one tally each."""
    return pow_raw(x, params.ABS_U, partial(o.apply, "fp12_cyclo_sqr"),
                   partial(o.apply, "fp12_mul"))


def final_exp(f: Fp12El) -> Fp12El:
    """Map a Miller value into the order-q target group.

    Easy part (p^6 - 1)(p^2 + 1), then the hard part as the exponent
    (u-1)^2 (u+p) (u^2 + p^2 - 1) + 3, a fixed cube of the reduced-pairing
    hard part, built from five |u|-exponentiations. Inversions after the
    easy part are conjugations.
    """
    _expect(f, Fp12El)
    t0 = _unitary_of(f)
    o = t0.o
    run, k = o.apply, t0.engine.tower.frob       # k[power]: Frobenius constants
    exp_u = partial(_exp_u, o)
    t0 = t0.val
    m = run("fp12_mul", t0, run("frob2", t0, k[2]))
    t1 = run("fp12_conj", run("fp12_mul", exp_u(m), m))      # m^(u-1)
    t2 = run("fp12_conj", run("fp12_mul", exp_u(t1), t1))    # ^(u-1)^2
    t3 = run("fp12_mul", run("fp12_conj", exp_u(t2)),
             run("frob1", t2, k[1]))                         # ^(u+p)
    t4 = exp_u(exp_u(t3))
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
    live = _live_pairs(pairs)
    if not live:
        return Fp12El.one(pairs[0][0].engine)
    if mode == "sharedmlfe":
        return final_exp(multi_miller_loop(live))
    acc = None
    for pq in live:
        v = multi_miller_loop([pq])
        v = final_exp(v) if mode == "naive" else v
        acc = v if acc is None else acc * v
    return acc if mode == "naive" else final_exp(acc)
