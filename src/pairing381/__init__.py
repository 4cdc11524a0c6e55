"""Instrumented BLS12-381 pairing engine with exact operation accounting."""

from .counters import OpCounter
from .curve import (
    G1Point,
    G2Point,
    ecsm,
    g2_ecsm_split,
    multi_exp,
    subgroup_check_canonical,
)
from .encoding import (
    EncodingError,
    MalformedEncoding,
    NotOnCurve,
    WrongSubgroup,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    gt_from_bytes,
    gt_to_bytes,
)
from .fields import Engine, FieldElement
from .hashing import CsprngState, expand_message_xmd, hash_to_g1
from .jubjub import JubjubPoint, jubjub_ecsm
from .pairing import final_exp, gt_pow, miller_loop, multi_pairing, pairing
from .params import cios_cost_model, system_params
from .protocol import (
    CountermeasureConfig,
    PublicKey,
    SecretKey,
    Signature,
    aggregate,
    aggregate_verify,
    hardened_ecsm,
    hardened_pairing,
    keygen,
    sign,
    verify,
)
from .tower import Fp2El, Fp6El, Fp12El

__all__ = [
    "CountermeasureConfig",
    "CsprngState",
    "EncodingError",
    "Engine",
    "FieldElement",
    "Fp2El",
    "Fp6El",
    "Fp12El",
    "G1Point",
    "G2Point",
    "JubjubPoint",
    "MalformedEncoding",
    "NotOnCurve",
    "OpCounter",
    "PublicKey",
    "SecretKey",
    "Signature",
    "WrongSubgroup",
    "aggregate",
    "aggregate_verify",
    "cios_cost_model",
    "ecsm",
    "expand_message_xmd",
    "final_exp",
    "g1_from_bytes",
    "g1_to_bytes",
    "g2_ecsm_split",
    "g2_from_bytes",
    "g2_to_bytes",
    "gt_from_bytes",
    "gt_pow",
    "gt_to_bytes",
    "hardened_ecsm",
    "hardened_pairing",
    "hash_to_g1",
    "jubjub_ecsm",
    "keygen",
    "miller_loop",
    "multi_exp",
    "multi_pairing",
    "pairing",
    "sign",
    "subgroup_check_canonical",
    "system_params",
    "verify",
]

__version__ = "0.1.0"
