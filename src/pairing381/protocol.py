"""BLS signatures plus randomized hardening wrappers for the core operations.

Signatures live in G1 (48 bytes compressed), public keys in G2 (96 bytes).
Verification folds the two-pairing equation into a single product with the
generator side negated,

    e(H(msg), pk) * e(sig, -G2) == 1,

so one shared Miller loop and one final exponentiation decide it. Aggregation
is plain G1 addition; aggregate verification is the (n+1)-entry version of
the same product and insists on distinct messages (the standard rogue-key
defense when possession proofs are out of scope). Single verification is
aggregate verification with n = 1.

The hardened wrappers re-randomize the computation, never the result:

  * scalar splitting evaluates k*P as r*P + (k-r)*P with shared doublings
    and a precomputed 2P table entry;
  * projective blinding scales the input point by a random unit lambda,
    which the homogeneous group law silently carries through;
  * pairing blinding evaluates e(a*P, a^{-1}*Q), which bilinearity
    collapses back to e(P, Q).

Outputs are bit-identical to the plain operations for every random draw.
"""

from . import params
from .curve import (
    G1Point,
    G2Point,
    _entry_check,
    _multi_exp,
    ecsm,
    g1_subgroup_check,
    g2_ecsm_split,
    g2_subgroup_check,
    ladder,
)
from .encoding import g1_from_bytes, g1_to_bytes, g2_from_bytes, g2_to_bytes
from .fields import _expect
from .hashing import CsprngState, hash_to_g1
from .pairing import multi_pairing, pairing, prepared_neg_g2
from .tower import Fp2El

DEFAULT_DST = b"pairing381-bls-sig-g1-sswu-v1"


class SecretKey:
    """A scalar in [1, q). Zero is excluded: it would sign everything with
    the identity and verify against the identity public key."""

    __slots__ = ("scalar",)

    def __init__(self, scalar: int):
        if not 1 <= scalar < params.Q:
            raise ValueError("secret key out of range")
        self.scalar = scalar

    def to_bytes(self) -> bytes:
        return self.scalar.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SecretKey":
        if len(data) != 32:
            raise ValueError("secret key must be 32 bytes")
        return cls(int.from_bytes(data, "big"))


class PublicKey:
    __slots__ = ("point",)

    def __init__(self, point: G2Point):
        _expect(point, G2Point)     # the class only: verify checks the rest
        self.point = point

    def to_bytes(self) -> bytes:
        return g2_to_bytes(self.point, compressed=True)

    @classmethod
    def from_bytes(cls, engine, data: bytes) -> "PublicKey":
        return cls(g2_from_bytes(engine, data))


class Signature:
    __slots__ = ("point",)

    def __init__(self, point: G1Point):
        _expect(point, G1Point)     # the class only: verify checks the rest
        self.point = point

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self.point, compressed=True)

    @classmethod
    def from_bytes(cls, engine, data: bytes) -> "Signature":
        return cls(g1_from_bytes(engine, data))


def keygen(engine, rng: CsprngState) -> tuple[SecretKey, PublicKey]:
    sk = SecretKey(rng.nonzero_below(params.Q))
    return sk, PublicKey(g2_ecsm_split(sk.scalar, engine.curve.g2_gen))


def sign(engine, sk: SecretKey, msg: bytes, dst: bytes = DEFAULT_DST) -> Signature:
    return Signature(ecsm(sk.scalar, hash_to_g1(engine, msg, dst), split=True))


def _valid(point, subgroup_check) -> bool:
    if point.is_identity():
        return False
    with point.engine.uncounted():
        return point.on_curve() and subgroup_check(point)


def verify(pk: PublicKey, msg: bytes, sig: Signature, dst: bytes = DEFAULT_DST) -> bool:
    return aggregate_verify([pk], [msg], sig, dst)


def aggregate(sigs: list) -> Signature:
    if not sigs:
        raise ValueError("nothing to aggregate")
    acc = sigs[0].point
    for s in sigs[1:]:
        acc = acc.add(s.point)
    return Signature(acc.to_affine())


def aggregate_verify(pks: list, msgs: list, agg_sig: Signature,
                     dst: bytes = DEFAULT_DST) -> bool:
    if not pks or len(pks) != len(msgs):
        raise ValueError("need equally many public keys and messages, at least one")
    if len(set(msgs)) != len(msgs):
        raise ValueError("aggregate verification requires distinct messages")
    e = agg_sig.point.engine
    e.raw_ops(agg_sig.point, *[pk.point for pk in pks])     # one engine
    if not _valid(agg_sig.point, g1_subgroup_check) or not all(
            _valid(pk.point, g2_subgroup_check) for pk in pks):
        return False
    pairs = [(hash_to_g1(e, m, dst), pk.point) for pk, m in zip(pks, msgs)]
    pairs.append((agg_sig.point, prepared_neg_g2(e)))
    return multi_pairing(pairs, mode="sharedmlfe").is_one()


# ----- randomized hardening -----


class CountermeasureConfig:
    """Which randomizations to apply, and the stream that feeds them.

    With every flag off the hardened wrappers fall through to the plain
    operations, so outputs (and counter traces) are bit-identical.
    """

    def __init__(self, rng: CsprngState, randomized_projective: bool = False,
                 scalar_splitting: bool = False,
                 randomized_pairing: bool = False):
        self.rng = rng
        self.randomized_projective = randomized_projective
        self.scalar_splitting = scalar_splitting
        self.randomized_pairing = randomized_pairing


def _random_unit(point, rng: CsprngState):
    """Nonzero coordinate-field element for projective blinding."""
    e = point.engine
    if isinstance(point, G2Point):
        while True:
            a0 = rng.below(params.P)
            a1 = rng.below(params.P)
            if a0 or a1:
                return Fp2El.of(e, a0, a1)
    return e.fp(rng.nonzero_below(params.P))


def hardened_ecsm(k: int, point, config: CountermeasureConfig):
    """k*P with optional projective and scalar blinding.

    Always returns the affine k*P. Projective blinding keeps the base in
    non-normalized form, so the single-scalar ladder below uses the general
    addition instead of the mixed one; scalar splitting runs the two halves
    through the shared-doubling double ladder whose table precomputes 2P.
    """
    if not (config.randomized_projective or config.scalar_splitting):
        return ecsm(k, point)
    _entry_check(point, G1Point, G2Point, k=k, bound=params.Q)
    if point.is_identity():
        return point
    base = point
    if config.randomized_projective:
        lam = _random_unit(point, config.rng)
        base = type(point)(point.x * lam, point.y * lam, point.z * lam)
    if config.scalar_splitting:
        r = config.rng.below(params.Q)
        return _multi_exp(r, base, (k - r) % params.Q, base, bits=255)
    return ladder(k, base, 255, type(point).add.op)


def hardened_pairing(p: G1Point, q: G2Point, config: CountermeasureConfig):
    """e(p, q) behind random exponents: e(a*p, b*q) with a*b = 1 mod q.

    Costs one pairing, one full-width scalar multiplication on each side
    and one Fq inversion on top of the draw.
    """
    if not config.randomized_pairing:
        return pairing(p, q)
    _entry_check(p, G1Point)
    _entry_check(q, G2Point)
    e = p.engine
    e.raw_ops(p, q)
    a = config.rng.nonzero_below(params.Q)
    b = e.fq(a).inverse().to_int()
    return pairing(ecsm(a, p), ecsm(b, q))

