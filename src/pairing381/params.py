"""System parameters for the BLS12-381 engine.

Both primes are recomputed from the 64-bit curve parameter u, and the
Frobenius and skew constants from zeta. Import re-checks the cheap facts (bit
lengths, group-order identities, omega, zeta, the generators' curves); the
tests and selftest check primality, the generators' subgroups and the
Frobenius identities once. No large literal here is load-bearing without a
check behind it.
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

# G1 endomorphism sigma(x,y) = (OMEGA x, y), OMEGA a cube root of unity mod p
# (2 is not a cube mod p). On G1 it acts as *LAMBDA_G1, a cube root of unity
# mod q: the fact that licenses curve.g1_subgroup_check. The tests and
# selftest run that check on the G1 generator, which OMEGA^2 would fail.
LAMBDA_G1 = (-U * U) % Q
OMEGA = pow(2, (P - 1) // 3, P)

# zeta = xi^((p-1)/6) in Fp2, as (c0, c1) with xi = 1 + alpha: the Frobenius
# pi scales the z-degree-d coefficient of Fp12 by zeta^d (tower.TowerCtx).
# Checked at import to satisfy zeta^6 = xi^(p-1) = conj(xi)/xi; the tests
# compare it with the stepwise power, and they and selftest check pi^12 = 1,
# pi^2, pi^3 and pi^6 against the constants below.
ZETA = (
    0x1904D3BF02BB0667C231BEB4202C0D1F0FD603FD3CBD5F4F7B2443D784BAB9C4F67EA53D63E7813D8D0775ED92235FB8,
    0x00FC3E2B36C4E03288E9E902231F9FB854A14787B6C7B36FEC0C8EC971F63C5F282D5AC14D6C7EC22CF78A126DDC4AF3,
)


def _fp2_mul(x, y):
    """x*y in Fp2 = Fp[alpha]/(alpha^2 + 1), on (c0, c1) int pairs."""
    return ((x[0] * y[0] - x[1] * y[1]) % P, (x[0] * y[1] + x[1] * y[0]) % P)


# The Frobenius constants by z-degree d: zeta^d for pi, its norm (in Fp) for
# pi^2, and their product for pi^3. The skew Frobenius of the twist
# (curve.skew_frobenius) scales x by 1/zeta^2 and y by 1/zeta^3, each
# 1/c = conj(c)/norm(c).
FROB1 = ((1, 0),)
for _ in range(5):
    FROB1 += (_fp2_mul(FROB1[-1], ZETA),)
FROB2 = tuple((c0 * c0 + c1 * c1) % P for c0, c1 in FROB1)
FROB3 = tuple((c0 * n % P, c1 * n % P) for (c0, c1), n in zip(FROB1, FROB2))
SKEW_CX, SKEW_CY = ((c0 * pow(n, -1, P) % P, -c1 * pow(n, -1, P) % P)
                    for (c0, c1), n in zip(FROB1[2:4], FROB2[2:4]))

U_SQ = U * U                    # 128 bits, < q; scalar splitting divisor

# Fixed exponent for the final-exponentiation hard part. The implemented chain
# computes f^(3d) for d = (p^4 - p^2 + 1)/q; the factor 3 keeps the u-chain
# integral and is a fixed power coprime to q, so the pairing stays bilinear,
# non-degenerate and of order q.
HARD_PART_EXP = 3 * ((P**4 - P**2 + 1) // Q)

EXECUTABLE_WORD_SIZES = (16, 32, 64)
ANALYTIC_WORD_SIZES = (16, 24, 32, 48, 64, 96)

# b of G1's curve y^2 = x^3 + b over Fp, and b' = b(1 + alpha) of the twist
# y^2 = x^3 + b' over Fp2 as (c0, c1): read by the curve equation
# (curve._CurvePoint.on_curve), compressed decoding and the checks below.
G1_B = 4
G2_B = (G1_B, G1_B)

# Standard generator points, checked on their curves at import; the tests and
# selftest check their subgroups.
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
# and d = -10240/10241. At import the generator is rechecked on the curve and
# ELL's bit length; the tests and selftest check that ELL is prime and is the
# generator's order.
JUBJUB_A = Q - 1
JUBJUB_D = (-10240 * pow(10241, -1, Q)) % Q
JUBJUB_ELL = 0x0E7DB4EA6533AFA906673B0101343B00A6682093CCC81082D0970E5ED6F72CB7
# 8*P, for P with the least y >= 2 and even x whose 8*P is not the identity
JUBJUB_GEN_X = 0x3A6C6DA047782F422FAD2D689CB64925D3E0878DF5BAAC0E33300795B6AE05E6
JUBJUB_GEN_Y = 0x4AE1F1107694F36ABA6D493320C0C7913492976D964D11ADAA206BA5C9701810


def _is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin; the tests and selftest run it on P, Q and JUBJUB_ELL."""
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
        self.byte_len = rbits // 8
        self.rbits = rbits
        self.word_size = word_size
        self.limbs = rbits // word_size
        self.word_mask = (1 << word_size) - 1
        self.full_mask = (1 << rbits) - 1
        self.r1 = (1 << rbits) % modulus
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


def _check(cond, msg: str) -> None:
    """AssertionError(msg) unless cond, also under python -O (no assert)."""
    if not cond:
        raise AssertionError(msg)


def _self_check() -> None:
    _check(P.bit_length() == 381 and Q.bit_length() == 255, "bit lengths")
    _check(P % 4 == 3, "p % 4")             # sqrt by one exponentiation
    _check(P % 3 == 1, "p % 3")             # cube roots of unity exist
    _check(Q * H1 == P + 1 - TRACE, "G1 group order")
    _check((LAMBDA_G1 * LAMBDA_G1 + LAMBDA_G1 + 1) % Q == 0, "lambda")
    _check(OMEGA != 1, "omega")             # so a primitive cube root mod p
    _check(P % Q == U % Q, "skew-Frobenius eigenvalue on G2")

    z3 = FROB1[3]                           # zeta^6 xi = conj(xi)
    _check(_fp2_mul(_fp2_mul(z3, z3), (1, 1)) == (1, P - 1), "zeta")
    _check((G1_GEN_Y**2 - G1_GEN_X**3 - G1_B) % P == 0, "G1 generator")
    x3 = _fp2_mul(_fp2_mul(G2_GEN_X, G2_GEN_X), G2_GEN_X)   # y^2 = x^3 + b'
    _check(_fp2_mul(G2_GEN_Y, G2_GEN_Y)
           == tuple((c + b) % P for c, b in zip(x3, G2_B)), "G2 generator")
    # the implemented hard-part chain equals the 3d exponent as integers
    _check(HARD_PART_EXP == (U - 1) ** 2 * (U + P) * (U**2 + P**2 - 1) + 3,
           "hard-part exponent")
    # fixed Fermat chains land exactly on the published totals
    for name, n, sqrs, muls in (("fp", P, 380, 228), ("fq", Q, 254, 163)):
        chain = ((n - 2).bit_length() - 1, bin(n - 2).count("1") - 1)
        _check(chain == (sqrs, muls), f"{name} inversion chain")
    _check(JUBJUB_ELL.bit_length() == 252, "jubjub ell")
    # d non-square: complete formulas; a = -1 a square mod q
    _check(pow(JUBJUB_D, (Q - 1) // 2, Q) == Q - 1, "jubjub d is a square")
    _check(pow(JUBJUB_A, (Q - 1) // 2, Q) == 1, "jubjub a is no square")
    x2, y2 = JUBJUB_GEN_X**2, JUBJUB_GEN_Y**2
    _check((y2 - x2 - 1 - JUBJUB_D * x2 * y2) % Q == 0, "jubjub generator")


_self_check()
