"""Operation counters.

Every field object carries one OpCounter; each arithmetic primitive bumps the
matching field exactly once, unconditionally, so counter traces double as a
constant-time regression check: two runs of the same routine on different
secrets must produce identical traces.
"""

# Fixed costs of the Fermat inversion chains, used by the m1 weighting.
FP_INV_MULS = 608   # 380 squarings + 228 multiplications
FP2_INV_M1 = 612    # 4 direct Fp muls + one Fp inversion


class OpCounter:
    """One int per counted kind, all zero unless given by keyword. Each is an
    instance attribute, so RawOps.apply bumps them through __dict__."""

    FIELDS = (
        # base field Fp
        "m1", "s1", "a1", "i1",
        # scalar field Fq
        "mq", "sq", "aq", "iq",
        # quadratic extension Fp2
        "m2", "s2", "a2", "i2",
        # word-level operations (word-array execution path only)
        "word_mul", "word_add",
        # Fp multiplications performed inside inversion chains; kept out of
        # m1 so i1/iq/i2 carry their full fixed cost exactly once in
        # m1_equivalent
        "inv_m1", "inv_mq",
        # Fp operations that happened as the inner half of an Fp2 operation.
        # They are kept out of m1/s1/a1/i1, which count direct Fp work only;
        # the raw Fp view is the sum of the two buckets (m1 + m1_in2, ...).
        "m1_in2", "s1_in2", "a1_in2", "i1_in2",
    )

    def __init__(self, **counts: int):
        unknown = counts.keys() - set(self.FIELDS)
        if unknown:
            raise TypeError(f"unknown counters: {sorted(unknown)}")
        for name in self.FIELDS:
            setattr(self, name, counts.get(name, 0))

    def __eq__(self, other):
        if type(other) is not OpCounter:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"OpCounter({body})"

    def snapshot(self) -> "OpCounter":
        return OpCounter(**vars(self))

    def delta(self, earlier: "OpCounter") -> "OpCounter":
        return OpCounter(**{k: v - getattr(earlier, k)
                            for k, v in vars(self).items()})

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

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
