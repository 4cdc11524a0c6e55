"""Every kernel against a plain-integer model of its body.

The model runs a kernel body on plain residues: a product is a * b % n, a
sum or difference (a +- b) % n, a fixed power pow(a, e, n), a named
constant its int, and a registered op the body calls runs its own body on
the model. On seeded operands and at the edges of the range (0, 1, n - 1,
mixed slot by slot), the bigint and the words results, each read part by
part through FieldElement.to_int(), equal the model's. Both backends get
their operands by Engine.fp/fq, so the test reads no raw representation.
"""

import random

import pytest

import pairing381.jubjub  # noqa: F401  registers the Jubjub kernels
import pairing381.pairing  # noqa: F401  registers the pairing kernels
from pairing381 import Engine
from pairing381.fields import CONSTANTS, KERNELS, X1, FieldElement


class _Model:
    """A kernel's primitive set on plain residues mod one field's modulus."""

    def __init__(self, field, n):
        self.field, self.n = field, n

    def mul(self, a, b):
        return a * b % self.n

    def sqr(self, a):
        return a * a % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def neg(self, a):
        return -a % self.n

    def pow(self, a, exp):
        return pow(a, exp, self.n)

    def inv(self, a):
        return pow(a, self.n - 2, self.n)

    def __getattr__(self, name):
        if (self.field, name) in CONSTANTS:
            return CONSTANTS[self.field, name]
        if name not in KERNELS:
            raise AttributeError(name)
        return lambda *args: KERNELS[name][0](self, *args)


@pytest.fixture(scope="module")
def engines():
    return Engine(), Engine(backend="words")


def _spec(e, op):
    return e.fq_spec if op.startswith("jubjub") else e.fp_spec


def _map(v, shape, fn):
    """fn applied to each Fp slot of a value of a placeholder shape."""
    if shape is X1:
        return fn(v)
    return tuple(_map(x, s, fn) for x, s in zip(v, shape))


def _shape(v):
    """The placeholder shape of a model value, each int one X1."""
    return X1 if type(v) is int else tuple(map(_shape, v))


def _draw(rng, shape, n, edges):
    """Plain residues for each slot: random, or 0, 1, n - 1 or random."""
    if shape is X1:
        return rng.choice((0, 1, n - 1, rng.randrange(n))) if edges else (
            rng.randrange(1, n))
    return tuple(_draw(rng, s, n, edges) for s in shape)


def _trials(op, n):
    shapes = KERNELS[op][2]
    rng = random.Random("model " + op)
    trials = [[_draw(rng, s, n, False) for s in shapes] for _ in range(2)]
    trials += [[_draw(rng, s, n, True) for s in shapes] for _ in range(6)]
    trials += [[_map(_draw(rng, s, n, True), s, lambda v: edge)
                for s in shapes] for edge in (0, 1, n - 1)]
    return trials


@pytest.mark.parametrize("op", sorted(KERNELS))
def test_kernel_equals_the_integer_model(engines, op):
    fn, _, shapes = KERNELS[op]
    field = "fq" if op.startswith("jubjub") else "fp"
    n = _spec(engines[0], op).modulus
    for args in _trials(op, n):
        want = fn(_Model(field, n), *args)
        shape = _shape(want)
        for e in engines:
            make = getattr(e, field)
            o = e.raw_ops(make(1))
            raw = [_map(a, s, lambda v: make(v).val)
                   for a, s in zip(args, shapes)]
            o.records[op]      # builds the record, compiles op on bigint
            with e.uncounted():
                out = getattr(o, op)(*raw)
            got = _map(out, shape,
                       lambda v: FieldElement._wrap(o, v).to_int())
            assert got == want, (e.backend, args)
