"""Scenario file loading and validation.

Scenario files are JSON documents:

    {
      "schema": 1,
      "m": 2,
      "mode": "exact",
      "V": {"value": ["1", "0", "0", "0"],
            "jacobian": [["0","0","0","0"], ["1","0","0","0"], ...]},
      "X": ["0","0","0","0"],
      "u": ["0","1","0","0"],
      "v": ["0","1","0","0"],
      "w": ["0","1","0","0"],
      "perturb": {"term": "l4", "delta": "1/7"},               // optional
      "seed": 7                                                // optional
    }

``jacobian[j][a]`` is the derivative of V_a along x_j (rows are
directions).  ``m`` is an integer from 2 to ``gamma.MAX_M`` = 5, the
largest m that every route reaches.  Exact mode takes rational literals:
a JSON integer, or a string of an optional sign, digits and an optional
"/" and digits ("3", "-3/4"); float mode takes plain numbers.  The
optional ``perturb`` block is the negative-control hook: it shifts one
term's reference closed form, by a rational literal ``delta``, before the
gating comparison.  The optional ``seed`` is an integer or null, echoed
into the report.

Validation errors carry the path of the offending field and are raised
as ``ScenarioError`` (the CLI maps them to exit code 2).
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .clifford import FrameVector
from .gamma import MAX_M
from .geometry import Scenario, VectorFieldJet
from .scalars import field_for_mode
from .torsion import TERM_NAMES


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(value, path: str) -> Fraction:
    """A rational literal: a JSON integer, or a string ``[+-]digits[/digits]``."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ScenarioError(
            f"{path}: bad rational literal {value!r} (expected an integer or a string "
            f"like \"-3/4\")"
        )
    num, _, den = value.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{path}: bad rational literal {value!r} ({exc})")


def _parse_scalar(value, mode: str, path: str):
    fld = field_for_mode(mode)
    if mode == "exact":
        return fld.of(_parse_rational(value, path))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: float mode needs numeric literals (got {value!r})")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ScenarioError(f"{path}: float mode needs finite numbers (got {value!r})")
    return fld.of(value)


def _check_float_range(norm_sq, m: int):
    """Float mode: |V|^2 and the powers of it that the pipeline forms, from
    |V|^4 (the square's leading symbol) down to |V|^{-4m-4} (q_{-2}^{m-1}
    times the |V|^{-8} of q_{-3}), must be finite normal floats."""
    w = abs(complex(norm_sq))
    for k in (1, 2, -2 * m - 2):
        try:
            power = w**k
        except (OverflowError, ZeroDivisionError):
            power = math.inf
        if not sys.float_info.min <= power <= sys.float_info.max:
            raise ScenarioError(
                f"V.value: |V|^2 = {w:.3g} is out of float range: "
                f"|V|^{2 * k} overflows or underflows"
            )


def _parse_vector(obj, n: int, mode: str, path: str) -> FrameVector:
    if not isinstance(obj, list):
        raise ScenarioError(f"{path}: expected a list of {n} components")
    if len(obj) != n:
        raise ScenarioError(f"{path}: expected {n} components, got {len(obj)}")
    return FrameVector(n, tuple(_parse_scalar(c, mode, f"{path}[{i}]") for i, c in enumerate(obj)))


def parse_scenario(doc: Dict) -> Tuple[Scenario, Optional[Tuple[str, Fraction]]]:
    """Validate a parsed JSON document into a Scenario plus the optional
    negative-control perturbation."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != 1:
        raise ScenarioError(f"schema: unsupported version {schema!r} (expected 1)")
    m = doc.get("m")
    if not isinstance(m, int) or not 2 <= m <= MAX_M:
        raise ScenarioError(f"m: must be an integer in 2..{MAX_M}, got {m!r}")
    mode = doc.get("mode")
    if mode not in ("exact", "float"):
        raise ScenarioError(f"mode: must be \"exact\" or \"float\", got {mode!r}")
    n = 2 * m
    if "curvature" in doc:
        raise ScenarioError(
            "curvature: not accepted; the rescaled-Dirac model works in flat "
            "normal coordinates and does not use curvature"
        )

    v_obj = doc.get("V")
    if not isinstance(v_obj, dict) or "value" not in v_obj or "jacobian" not in v_obj:
        raise ScenarioError("V: expected an object with \"value\" and \"jacobian\"")
    value = _parse_vector(v_obj["value"], n, mode, "V.value")
    jac_obj = v_obj["jacobian"]
    if not isinstance(jac_obj, list) or len(jac_obj) != n:
        raise ScenarioError(f"V.jacobian: expected {n} rows")
    jacobian = tuple(
        tuple(
            _parse_scalar(c, mode, f"V.jacobian[{j}][{a}]")
            for a, c in enumerate(_require_row(row, n, f"V.jacobian[{j}]"))
        )
        for j, row in enumerate(jac_obj)
    )
    norm_sq = value.dot(value)
    if mode == "float" and not value.is_zero():
        _check_float_range(norm_sq, m)
    if not bool(norm_sq):
        raise ScenarioError("V.value: vector field V is zero: |V|^2 must be positive")

    vectors = {
        name: _parse_vector(doc.get(name), n, mode, name) for name in ("X", "u", "v", "w")
    }

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ScenarioError(f"seed: must be an integer or null, got {seed!r}")

    perturb = None
    if "perturb" in doc and doc["perturb"] is not None:
        p = doc["perturb"]
        if not isinstance(p, dict) or "term" not in p or "delta" not in p:
            raise ScenarioError("perturb: expected {term, delta}")
        if p["term"] not in TERM_NAMES:
            raise ScenarioError(
                f"perturb.term: unknown term {p['term']!r} "
                f"(expected one of {', '.join(TERM_NAMES)})"
            )
        perturb = (p["term"], _parse_rational(p["delta"], "perturb.delta"))

    try:
        scenario = Scenario(
            m=m,
            mode=mode,
            V=VectorFieldJet(value, jacobian),
            X=vectors["X"],
            u=vectors["u"],
            v=vectors["v"],
            w=vectors["w"],
            seed=seed,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc))
    return scenario, perturb


def _require_row(row, n: int, path: str):
    if not isinstance(row, list) or len(row) != n:
        raise ScenarioError(f"{path}: expected {n} entries")
    return row


def load_scenario(path: str) -> Tuple[Scenario, Optional[Tuple[str, Fraction]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"{path}: file not found")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read ({exc.strerror or exc})")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit
        raise ScenarioError(f"{path}: invalid JSON ({exc})")
    return parse_scenario(doc)
