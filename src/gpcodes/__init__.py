"""Erasure codes on symbol arrays over GF(2^w).

The package implements a family of array codes built from nested
maximum-distance-separable row codes (``gpc``), their extensions with
global parities (``epc``), exact brute-force ground truth for both
(``oracle``), the underlying field and matrix layers (``fields``,
``linalg``) and file formats plus a CLI (``files``, ``cli``).

``import gpcodes`` loads none of them: each name below, and each of
those five modules, loads on first use, so a command that never runs
the oracle never imports it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fields": ("GF", "default_field", "field_with_order",
               "find_construction_prime", "is_irreducible",
               "is_two_primitive", "mp_polynomial", "PrimeSearchError"),
    "linalg": ("Matrix", "LinearSolveError", "NoSolutionError",
               "UnderdeterminedError", "kron", "null_space", "rank",
               "row_reduce", "solve", "vandermonde", "vstack"),
    "gpc": ("ContradictionError", "ErasureProfile", "GpcParams",
            "SymbolArray", "UncorrectableError", "component_parity_check",
            "decodable_profile", "decode_iterative", "decode_plan",
            "decode_rows", "encode", "erase_positions", "full_parity_matrix",
            "is_member", "min_weight_codeword"),
    "epc": ("EpcShape", "LinearCode", "build_h2", "build_h3",
            "build_optimal_g1", "check_condition_35", "distance_bound",
            "lc_encode", "lc_erasure_decode", "lc_is_member"),
    "oracle": ("DistanceCapError", "DistanceReport", "EquivalenceReport",
               "SearchBudgetError", "brute_min_distance", "correctable",
               "decoder_oracle_equivalence", "random_decodable_pattern"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = list(_OWNERS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _OWNERS:
        return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
