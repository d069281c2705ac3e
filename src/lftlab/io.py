"""Instance and result documents.

Instance files are JSON with kind "samples" (explicit grid + sample
array) or "builtin" (a named generator plus parameters). Rationals are
written as "p/q" strings so documents round-trip losslessly; decimal
rendering is opt-in and always declared with its precision. Result
documents sort keys and end with a newline, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import random
from fractions import Fraction
from typing import Union

from .fixtures import (
    random_convex_quadratic_nd,
    random_quadratic_spec,
    sampled,
    separable_sum,
)
from .grids import FunctionSpec, RegularGrid
from .hardness import HiddenStringInstance
from .multi import RatTensor, TensorGrid, TensorSamples
from .rational import format_rational, frac

Instance = Union[FunctionSpec, TensorSamples]

FIXTURES = ("quadratic-ex1", "pwl-ex2", "pwl-ex3")
BUILTINS = (
    *FIXTURES,
    "hypercube-z",
    "separable-sum",
    "random-convex-quadratic",
)


class ParseError(ValueError):
    pass


def serialize_instance(instance: Instance) -> dict:
    one_d = isinstance(instance, FunctionSpec)
    if one_d:
        axes, samples = (instance.grid,), instance.samples
    else:
        axes, samples = instance.grid.axes, instance.values.flat
    doc = {
        "kind": "samples",
        "grid": [
            {"x0": format_rational(g.x0), "gamma_x": format_rational(g.gamma), "n": g.n}
            for g in axes
        ],
        "samples": [format_rational(v) for v in samples],
    }
    if one_d and instance.closed_form:
        doc["closed_form"] = instance.closed_form
    return doc


def _parse_axis(doc: dict) -> RegularGrid:
    try:
        return RegularGrid(x0=frac(doc["x0"]), gamma=frac(doc["gamma_x"]), n=int(doc["n"]))
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise ParseError(f"bad grid axis {doc!r}: {exc}") from exc


def parse_instance(doc: dict) -> Instance:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("instance document needs a 'kind' field")
    kind = doc["kind"]
    if kind == "samples":
        axes = doc.get("grid")
        if not isinstance(axes, list) or not axes:
            raise ParseError("samples instance needs a nonempty 'grid' list")
        grids = [_parse_axis(a) for a in axes]
        try:
            samples = [frac(v) for v in doc["samples"]]
        except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
            raise ParseError(f"bad samples: {exc}") from exc
        if len(grids) == 1:
            return FunctionSpec(
                grid=grids[0],
                samples=tuple(samples),
                closed_form=doc.get("closed_form"),
            )
        tgrid = TensorGrid(axes=tuple(grids))
        return TensorSamples(grid=tgrid, values=RatTensor(tgrid.shape, tuple(samples)))
    if kind == "builtin":
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ParseError("builtin 'params' must be an object")
        try:
            return _build(doc.get("name"), params)
        except (KeyError, TypeError, ArithmeticError) as exc:
            raise ParseError(f"bad builtin parameters {params!r}: {exc}") from exc
    raise ParseError(f"unknown instance kind {kind!r}")


def _int_param(params: dict, name: str, default: int) -> int:
    """An integer builtin parameter: an int (not a bool) or an integer
    string; anything else is a ParseError naming the parameter."""
    value = params.get(name, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    raise ParseError(f"builtin parameter {name!r} must be an integer, got {value!r}")


def _build(name, params: dict) -> Instance:
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin {name!r}; choose from {BUILTINS}")
    if name in FIXTURES:
        return sampled(name, n=_int_param(params, "n", 5))
    if name == "hypercube-z":
        z = params.get("z")
        if not isinstance(z, str) or any(ch not in "01" for ch in z) or not z:
            raise ParseError("hypercube-z needs a 0/1 string parameter 'z'")
        bits = tuple(int(ch) for ch in z)
        scale = params.get("scale", "1")
        try:
            scale_val = Fraction(2) ** len(bits) if scale == "2^d" else frac(scale)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"builtin parameter 'scale' must be a rational or '2^d', got {scale!r}") from exc
        return HiddenStringInstance(bits, scale_val).sample_tensor()
    d = _int_param(params, "d", 2 if name == "separable-sum" else 1)
    if d < 1:
        raise ParseError(f"builtin parameter 'd' must be >= 1, got {d}")
    if name == "separable-sum":
        base = params.get("base", "quadratic-ex1")
        if base not in FIXTURES:
            raise ParseError(f"builtin parameter 'base' must be one of {FIXTURES}, got {base!r}")
        return separable_sum(base=base, d=d, n=_int_param(params, "n", 5))
    # random-convex-quadratic
    seed = _int_param(params, "seed", 0)
    n = _int_param(params, "n", 8)
    coupling = _int_param(params, "coupling", 1)
    if coupling < 0:
        raise ParseError(f"builtin parameter 'coupling' must be >= 0, got {coupling}")
    rng = random.Random(seed)
    if d == 1:
        return random_quadratic_spec(rng, n)
    return random_convex_quadratic_nd(rng, d=d, n=n, coupling=coupling)


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_instance(doc)


def dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def step_records(run) -> list[dict]:
    """One JSON-ready record per simulator step."""
    return [
        {
            "step": rec.name,
            "labels": rec.label_count,
            "norm": format_rational(rec.norm_sq),
            "acceptance": None if rec.acceptance is None else format_rational(rec.acceptance),
        }
        for rec in run.step_trace
    ]


def transcript_jsonl(run) -> str:
    """Line-delimited step log: one record per simulator step."""
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in step_records(run)) + "\n"


def document_to_csv(doc: dict) -> str:
    """Flat key,value rendering; structured fields inline as JSON."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, (list, dict)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def with_decimals(doc: dict, fields: tuple[str, ...], precision: int) -> dict:
    """Add decimal renderings of exact rational fields: a scalar renders as
    one decimal, a list (nested or not) element by element. Each decimal is
    the exact value rounded half to even, so no value is out of range."""
    if precision < 0:
        raise ValueError(f"--precision must be nonnegative, got {precision}")

    def render(v):
        if isinstance(v, list):
            return [render(x) for x in v]
        v = Fraction(v)
        whole, part = divmod(abs(round(v * 10**precision)), 10**precision)
        return ("-" if v < 0 else "") + str(whole) + (f".{part:0{precision}d}" if precision else "")

    out = dict(doc)
    out["precision"] = precision
    for field in fields:
        if field in doc:
            out[field + "_decimal"] = render(doc[field])
    return out
