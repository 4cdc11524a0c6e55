"""Operation counters.

Every field object carries one OpCounter; each arithmetic primitive bumps the
matching field exactly once, unconditionally, so counter traces double as a
constant-time regression check: two runs of the same routine on different
secrets must produce identical traces.
"""

from dataclasses import dataclass, fields as dc_fields

# Fixed costs of the Fermat inversion chains, used by the m1 weighting.
FP_INV_MULS = 608   # 380 squarings + 228 multiplications
FP2_INV_M1 = 612    # 4 direct Fp muls + one Fp inversion


@dataclass
class OpCounter:
    # base field Fp
    m1: int = 0
    s1: int = 0
    a1: int = 0
    i1: int = 0
    # scalar field Fq
    mq: int = 0
    sq: int = 0
    aq: int = 0
    iq: int = 0
    # quadratic extension Fp2
    m2: int = 0
    s2: int = 0
    a2: int = 0
    i2: int = 0
    # word-level operations (word-array execution path only)
    word_mul: int = 0
    word_add: int = 0
    # Fp multiplications performed inside inversion chains; kept out of m1 so
    # i1/iq/i2 carry their full fixed cost exactly once in m1_equivalent
    inv_m1: int = 0
    inv_mq: int = 0
    # Fp operations that happened as the inner half of an Fp2 operation. They
    # are kept out of m1/s1/a1/i1, which count direct Fp work only; the raw
    # Fp view is the sum of the two buckets (m1 + m1_in2, ...).
    m1_in2: int = 0
    s1_in2: int = 0
    a1_in2: int = 0
    i1_in2: int = 0

    def snapshot(self) -> "OpCounter":
        return OpCounter(**{f.name: getattr(self, f.name) for f in dc_fields(self)})

    def delta(self, earlier: "OpCounter") -> "OpCounter":
        return OpCounter(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dc_fields(self)
            }
        )

    def reset(self) -> None:
        for f in dc_fields(self):
            setattr(self, f.name, 0)

    def m1_equivalent(self) -> int:
        """Total cost in Fp-multiplication units.

        Direct Fp muls and squarings count 1 each, an Fp2 mul 3, an Fp2
        squaring 2, an Fp inversion 608 and an Fp2 inversion 612 (4 muls plus
        one Fp inversion). Fp work nested inside Fp2 ops or inversion chains
        sits in its own buckets and is left out, because the enclosing op
        already carries it. Fq and word-level work is out of scope here.
        """
        return (
            self.m1
            + self.s1
            + 3 * self.m2
            + 2 * self.s2
            + FP_INV_MULS * self.i1
            + FP2_INV_M1 * self.i2
        )
