"""JSON round-tripping for sets, T-values and kernels.

The on-disk formats are deliberately small:

* finite set: {"name": "X", "elements": ["x1", "x2"]}
* monad id: the instance's `id`, its one identity, e.g. "M*", "F(B=3)" or
  "writer:Z2".  A writer over a monoid that is not the library monoid of
  its name spells the monoid out in the id: "writer:" followed by the
  compact, key-sorted `FiniteMonoid.to_json`, e.g.
  writer:{"elements":["0","1"],"name":"C2","table":[[0,1],[1,0]],"unit":0}
* table value: {"entries": {"x1": "1/2", "x2": "3"}} (zeros omitted; F
  writes integers)
* subset value: {"elements": ["x1", "x2"]}
* writer value: {"a": "g", "x": "x1"}
* identity value: {"x": "x1"}
* kernel: {"monad": "M*", "dom": {...}, "cod": {...}, "columns": {"x1": value, ...}}

A kernel codomain may instead be {"factors": [set, set, ...]}, which builds
the product set; this is how conditional-independence inputs name their
output coordinates.  Each monad instance writes and reads the fields of
its own values (`value_to_json`, `value_from_json`).  The writers refuse
an instance whose id `get_instance` cannot read (a subclass with an id of
its own).
"""

from __future__ import annotations

import json

from .errors import GsmonError, MalformedInput, UnknownMonad
from .finset import FinSet, elem_from_str, elem_to_str, product
from .kernels import Kernel
from .monads import MonadInstance, TValue, get_instance


def finset_to_json(s: FinSet) -> dict:
    return {"name": s.name, "elements": [elem_to_str(e) for e in s.elements]}


def finset_from_json(data) -> FinSet:
    try:
        return FinSet(data["name"], tuple(elem_from_str(e) for e in data["elements"]))
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad finite set: {exc}") from None


def _written_id(inst: MonadInstance) -> str:
    """The id that names `inst` in JSON, refused (UnknownMonad) unless
    `get_instance` can read it."""
    try:
        get_instance(inst.id)
    except UnknownMonad:
        raise UnknownMonad(f"{inst.id} does not read back; refusing to write it") from None
    return inst.id


def tvalue_to_json(t: TValue) -> dict:
    data = {"monad": _written_id(t.monad), "base": t.base.name}
    data.update(t.monad.value_to_json(t))
    return data


def _value_from_json(inst: MonadInstance, base: FinSet, data) -> TValue:
    try:
        return inst.value_from_json(base, data)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad {inst.id} value: {exc}") from None


def tvalue_from_json(data, inst: MonadInstance = None, base: FinSet = None) -> TValue:
    if inst is None:
        inst = get_instance(data["monad"])
    if base is None:
        raise MalformedInput("a base set is required to decode a T-value")
    return _value_from_json(inst, base, data)


def kernel_to_json(k: Kernel) -> dict:
    return {
        "monad": _written_id(k.inst),
        "dom": finset_to_json(k.dom),
        "cod": finset_to_json(k.cod),
        "columns": {
            elem_to_str(x): k.inst.value_to_json(col)
            for x, col in zip(k.dom.elements, k.columns)
        },
    }


def kernel_from_json(data, bound: int = 16):
    """Decode a kernel; returns (kernel, codomain_factors_or_None)."""
    try:
        inst = get_instance(data["monad"], bound=bound)
        dom = finset_from_json(data["dom"])
        cod_data = data["cod"]
        factors = None
        if "factors" in cod_data:
            factors = [finset_from_json(f) for f in cod_data["factors"]]
            cod = product(factors)
        else:
            cod = finset_from_json(cod_data)
        columns = []
        raw_cols = data["columns"]
        keys = set(map(elem_to_str, dom.elements))
        extra = next((key for key in raw_cols if key not in keys), None)
        if extra is not None:
            raise MalformedInput(f"column {extra!r} is not an element of the domain")
        for x in dom.elements:
            key = elem_to_str(x)
            if key not in raw_cols:
                raise MalformedInput(f"missing column for {key}")
            columns.append(_value_from_json(inst, cod, raw_cols[key]))
        return Kernel(inst, dom, cod, columns), factors
    except MalformedInput:
        raise
    except KeyError as exc:
        raise MalformedInput(f"kernel JSON missing field {exc}") from None
    except Exception as exc:
        raise MalformedInput(f"bad kernel: {exc}") from None


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None


def write_text(path: str, text: str):
    """Write `text` to `path`; a path that cannot be written is a GsmonError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GsmonError(f"cannot write {path}: {exc}") from None


def dump_json(data, path: str = None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        write_text(path, text)
    return text
