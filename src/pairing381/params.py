"""System parameters for the BLS12-381 engine.

Both primes are recomputed from the 64-bit curve parameter u and re-checked at
import (bit lengths, primality, group-order identities), so no large literal in
this file is load-bearing without a check behind it.
"""

from functools import lru_cache

# Curve parameter. Everything else derives from it.
U = -0xD201000000010000
ABS_U = -U

Q = U**4 - U**2 + 1
P = (U - 1) ** 2 * Q // 3 + U

TRACE = U + 1
H1 = (U - 1) ** 2 // 3          # G1 cofactor: #E(Fp) = q * h1
H_EFF_G1 = 1 - U                # effective cofactor used when clearing G1

# G1 endomorphism eigenvalue: sigma(x,y) = (omega x, y) acts as *LAMBDA_G1 on G1
LAMBDA_G1 = (-U * U) % Q

U_SQ = U * U                    # 128 bits, < q; scalar splitting divisor

# Fixed exponent for the final-exponentiation hard part. The implemented chain
# computes f^(3d) for d = (p^4 - p^2 + 1)/q; the factor 3 keeps the u-chain
# integral and is a fixed power coprime to q, so the pairing stays bilinear,
# non-degenerate and of order q.
HARD_PART_EXP = 3 * ((P**4 - P**2 + 1) // Q)

EXECUTABLE_WORD_SIZES = (16, 32, 64)
ANALYTIC_WORD_SIZES = (16, 24, 32, 48, 64, 96)

# Standard generator points. Validated on-curve and in-subgroup at engine
# construction; a transcription error here cannot survive startup.
G1_GEN_X = 0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB
G1_GEN_Y = 0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1

G2_GEN_X = (
    0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
    0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
)
G2_GEN_Y = (
    0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
    0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
)

# Jubjub: twisted Edwards curve a x^2 + y^2 = 1 + d x^2 y^2 over Fq with a = -1
# and d = -10240/10241. Subgroup order ELL is rechecked prime at import; the
# deterministic generator derivation lives in jubjub.py.
JUBJUB_A = Q - 1
JUBJUB_D = (-10240 * pow(10241, -1, Q)) % Q
JUBJUB_ELL = 0x0E7DB4EA6533AFA906673B0101343B00A6682093CCC81082D0970E5ED6F72CB7
JUBJUB_COFACTOR = 8


def _is_probable_prime(n: int, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # fixed bases: deterministic behaviour, error bound 4^-rounds
    base = 0xB5AD4ECEDA1CE2A9
    for i in range(rounds):
        a = 2 + (base + 0x9E3779B97F4A7C15 * i) % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cios_cost_model(word_size: int) -> tuple[int, int]:
    """Word multiplications and additions of one CIOS Montgomery multiplication
    at the given word size for the 384-bit datapath: s = ceil(384/w), giving
    (s(2s+1), 2(2s^2+2s+1)). Valid for 16/24/32/48/64/96; only 16/32/64 are
    also executable."""
    if word_size not in ANALYTIC_WORD_SIZES:
        raise ValueError(f"unsupported word size {word_size}")
    s = -(-384 // word_size)
    return s * (2 * s + 1), 2 * (2 * s * s + 2 * s + 1)


class FieldSpec:
    """Montgomery parameters for one prime field at one word size."""

    def __init__(self, name: str, modulus: int, rbits: int, word_size: int):
        if word_size not in EXECUTABLE_WORD_SIZES:
            raise ValueError(f"unsupported word size {word_size}")
        self.name = name
        self.modulus = modulus
        self.bits = modulus.bit_length()
        self.byte_len = rbits // 8
        self.rbits = rbits
        self.word_size = word_size
        self.limbs = rbits // word_size
        assert self.limbs * word_size == rbits
        self.word_mask = (1 << word_size) - 1
        self.full_mask = (1 << rbits) - 1
        self.r1 = (1 << rbits) % modulus
        self.r2 = self.r1 * self.r1 % modulus
        self.rinv = pow(self.r1, -1, modulus)
        self.np_full = (-pow(modulus, -1, 1 << rbits)) % (1 << rbits)
        self.np0 = self.np_full & self.word_mask
        self.mod_limbs = tuple(
            (modulus >> (i * word_size)) & self.word_mask for i in range(self.limbs)
        )
        # per-multiplication word-operation law
        s = self.limbs
        self.words_per_mul = s * (2 * s + 1)
        self.word_adds_per_mul = 2 * (2 * s * s + 2 * s + 1)
        self.word_adds_per_modadd = 2 * s + 1
        self.word_adds_per_modsub = 2 * s


class SystemParams:
    """All engine-level constants for one word size."""

    def __init__(self, word_size: int = 64):
        self.word_size = word_size
        self.fp = FieldSpec("fp", P, 384, word_size)
        self.fq = FieldSpec("fq", Q, 256, word_size)


@lru_cache(maxsize=None)
def system_params(word_size: int = 64) -> SystemParams:
    return SystemParams(word_size)


def _self_check() -> None:
    assert P.bit_length() == 381 and Q.bit_length() == 255
    assert _is_probable_prime(P) and _is_probable_prime(Q)
    assert P % 4 == 3                     # sqrt by one exponentiation
    assert P % 3 == 1                     # cube roots of unity exist
    assert Q * H1 == P + 1 - TRACE        # G1 group order
    assert (LAMBDA_G1 * LAMBDA_G1 + LAMBDA_G1 + 1) % Q == 0
    assert P % Q == U % Q                 # skew-Frobenius eigenvalue on G2
    # the implemented hard-part chain equals the 3d exponent as integers
    assert HARD_PART_EXP == (U - 1) ** 2 * (U + P) * (U**2 + P**2 - 1) + 3
    # fixed Fermat chains land exactly on the published totals
    assert (P - 2).bit_length() - 1 == 380 and bin(P - 2).count("1") - 1 == 228
    assert (Q - 2).bit_length() - 1 == 254 and bin(Q - 2).count("1") - 1 == 163
    assert _is_probable_prime(JUBJUB_ELL) and JUBJUB_ELL.bit_length() == 252
    assert pow(JUBJUB_D, (Q - 1) // 2, Q) == Q - 1   # d non-square: complete formulas
    assert pow(JUBJUB_A, (Q - 1) // 2, Q) == 1       # a = -1 is a square mod q


_self_check()
