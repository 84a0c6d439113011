"""On-disk formats: JSON code descriptions and plain-text symbol arrays.

A code description is a JSON object with a ``kind`` of ``gpc``,
``epc-g1``, ``epc-h2`` or ``epc-h3`` plus the shape fields of that
kind.  Fields serialize as ``{"w": ..., "modulus_hex": ..., "alpha":
...}`` with the modulus packed low-bit-first (bit i = coefficient of
x^i); when omitted, a sensible default field for the shape is chosen.

Array files are line-oriented text: a header ``m n w`` followed by m
rows of n whitespace-separated hex symbols, with ``?`` marking an
erased cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .epc import (EpcShape, LinearCode, build_h2, build_h3, build_optimal_g1)
from .fields import GF, field_with_order
from .gpc import GpcParams, SymbolArray


class SpecFileError(ValueError):
    """Malformed or inconsistent code description."""


def field_to_json(field: GF) -> dict:
    return {"w": field.w, "modulus_hex": f"{field.modulus:x}",
            "alpha": field.alpha}


def field_from_json(obj: dict) -> GF:
    try:
        w = int(obj["w"])
        modulus = int(obj["modulus_hex"], 16) if "modulus_hex" in obj else None
        alpha = int(obj.get("alpha", 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"bad field description: {exc}") from exc
    try:
        return GF(w, modulus, alpha)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


@dataclass
class CodeSpec:
    """A parsed code description.

    Exactly one of ``params`` (array codes) or ``linear`` (flat codes)
    is set; ``shape`` carries the extended-product shape when the kind
    implies one.
    """

    kind: str
    params: GpcParams | None = None
    linear: LinearCode | None = None
    shape: EpcShape | None = None

    @property
    def field(self) -> GF:
        return self.params.field if self.params is not None else self.linear.field


def _require(obj: dict, keys: list[str], kind: str) -> list[int]:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SpecFileError(f"kind {kind!r} needs fields {missing}")
    out = []
    for k in keys:
        v = obj[k]
        if type(v) is not int:     # not a float, nor a bool (JSON true)
            raise SpecFileError(f"field {k!r} must be an integer")
        out.append(v)
    return out


def parse_code_spec(obj: dict) -> CodeSpec:
    if not isinstance(obj, dict):
        raise SpecFileError("top level must be a JSON object")
    kind = obj.get("kind")
    field = field_from_json(obj["field"]) if "field" in obj else None
    try:
        if kind == "gpc":
            m, n, k = _require(obj, ["m", "n", "k"], kind)
            s = obj.get("s")
            u = obj.get("u")
            if not all(isinstance(v, list)
                       and all(type(x) is int for x in v) for v in (s, u)):
                raise SpecFileError("kind 'gpc' needs integer lists 's' and 'u'")
            if field is None:
                field = field_with_order(max(m, n))
            params = GpcParams(m=m, n=n, k=k, s=tuple(s), u=tuple(u),
                               field=field)
            bad = params.violations()
            if bad:
                raise SpecFileError("; ".join(bad))
            return CodeSpec(kind, params=params)
        if kind == "epc-g1":
            m, v, n, h = _require(obj, ["m", "v", "n", "h"], kind)
            params = build_optimal_g1(m, v, n, h, field)
            return CodeSpec(kind, params=params, shape=EpcShape(m, v, n, h, 1))
        if kind == "epc-h2":
            m, n = _require(obj, ["m", "n"], kind)
            return CodeSpec(kind, linear=build_h2(m, n, field),
                            shape=EpcShape(m, 1, n, 1, 2))
        if kind == "epc-h3":
            m, n = _require(obj, ["m", "n"], kind)
            return CodeSpec(kind, linear=build_h3(m, n, field),
                            shape=EpcShape(m, 1, n, 1, 3))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        raise SpecFileError(str(exc)) from exc
    raise SpecFileError(
        f"unknown kind {kind!r}; expected gpc, epc-g1, epc-h2 or epc-h3")


def load_code_spec(path: str) -> CodeSpec:
    try:
        with open(path) as fp:
            obj = json.load(fp)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_code_spec(obj)


def array_to_text(arr: SymbolArray, w: int) -> str:
    lines = [f"{arr.m} {arr.n} {w}"]
    for vals, mask in zip(arr.values, arr.erased):
        lines.append(" ".join("?" if e else f"{v:x}"
                              for v, e in zip(vals, mask)))
    return "\n".join(lines) + "\n"


def _parse_symbol(tok: str, limit: int, w: int) -> int:
    # One hex symbol below limit = 2^w.
    try:
        v = int(tok, 16)
    except ValueError as exc:
        raise SpecFileError(f"bad symbol {tok!r}") from exc
    if not 0 <= v < limit:
        raise SpecFileError(f"symbol {tok!r} out of range for w={w}")
    return v


def parse_array_text(text: str) -> tuple[SymbolArray, int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SpecFileError("empty array file")
    header = lines[0].split()
    if len(header) != 3:
        raise SpecFileError("array header must be 'm n w'")
    try:
        m, n, w = (int(x) for x in header)
    except ValueError as exc:
        raise SpecFileError(f"bad array header: {exc}") from exc
    if len(lines) - 1 != m:
        raise SpecFileError(f"expected {m} rows, found {len(lines) - 1}")
    values = []
    mask = []
    limit = 1 << w
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != n:
            raise SpecFileError(f"expected {n} symbols per row, got {len(tokens)}")
        vrow = []
        erow = []
        for tok in tokens:
            if tok == "?":
                vrow.append(0)
                erow.append(True)
                continue
            vrow.append(_parse_symbol(tok, limit, w))
            erow.append(False)
        values.append(vrow)
        mask.append(erow)
    return SymbolArray(values, mask), w


def read_array(path: str) -> tuple[SymbolArray, int]:
    try:
        with open(path) as fp:
            return parse_array_text(fp.read())
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc


def read_symbols(path: str, w: int) -> list[int]:
    """Whitespace-separated hex data symbols (for the encoder)."""
    try:
        with open(path) as fp:
            tokens = fp.read().split()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    limit = 1 << w
    return [_parse_symbol(tok, limit, w) for tok in tokens]
