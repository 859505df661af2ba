"""Command-line front end: one verb per pipeline, file in, stdout out.

Each verb is one row of :data:`VERBS`: its help text, what ``--json`` does
for it, its options, what it computes from the loaded input and the lines it
prints; :func:`build_parser` and :func:`main` read nothing else.  ``--json``
changes what the series, pole, ``nearby``, ``expand`` and probe verbs print;
``subdivide`` and ``resolve`` print the model as JSON and ``validate`` prints
``ok`` either way, and their ``--help`` says so.

A fan model's coefficient texts are read through a bounded table keyed by
the text (:func:`parse_coeff`), and its cells go to the cone and complex
tables of :mod:`logzeta.cones`, so a parse works once per distinct text,
ray list and cell set.

Input kinds are recognized by schema: an object with ``support`` is Newton
input, with ``components`` sncd data, with ``cells`` a fan model.  Exit
status is 0 on success, 2 when validation diagnostics were printed, 1 on
parse or usage errors and when a computation gives up (the resolution's
loop guard, the one place that still raises ``RuntimeError``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .cones import cone_from_rays, complex_from_cones, resolve_complex, star_subdivision
from .mring import LaurentPoly, MClass, MCoeff
from .newton import (
    NewtonInput,
    newton_poles,
    newton_zeta,
    newton_zeta_local,
    nondegeneracy_probe,
)
from .series import ZSeries, format_poles
from .zeta import (
    FanModel,
    InvalidModel,
    SncdComponent,
    SncdData,
    dl_zeta,
    fan_poincare,
    fan_poles,
    nearby_fibre,
    sncd_poincare,
    transport_subdivide,
    validate_model,
)


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coefficient text form: Laurent polynomial with optional /(L-1)^k.
#
# A term is a signed integer, a signed power of L, or the two joined by "*";
# every term after the first starts with its sign.  Spaces may separate
# tokens but not the digits of one number.

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<coef>\d+)(?P<star>\*)?)?(?P<l>L(?:\^(?P<exp>-?\d+))?)?"
)

# Largest |exponent| of L, and largest power of (L-1), in a coefficient: its
# cost grows linearly with them, and "(L^1000000-1)/(L-1)" took 179 MB to
# validate.
COEFF_MAX_EXPONENT = 1000


def parse_coeff(text: str) -> MCoeff:
    """The coefficient the text form ``text`` names, read from the
    coefficient table keyed by the text: an ``MCoeff`` is a frozen value, so
    equal text returns the same object, which :func:`_read_coeff` builds on
    a miss.  A refused text is never kept, so it raises ``InputError`` again
    on every call."""
    return _coeff_table(text)


def _read_coeff(text: str) -> MCoeff:
    """The coefficient :func:`parse_coeff` returns, read afresh."""
    if re.search(r"\d\s+\d", text):
        raise InputError(f"cannot parse coefficient {text!r}: digits split by a space")
    s = text.strip().replace(" ", "")
    den_pow = 0
    m = re.fullmatch(r"\((?P<num>.*)\)/\(L-1\)(?:\^(?P<k>\d+))?", s)
    if m is None:
        m = re.fullmatch(r"(?P<num>[^/()]*)/\(L-1\)(?:\^(?P<k>\d+))?", s)
    if m is not None:
        den_pow = int(m.group("k") or 1)
        s = m.group("num")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    coeffs: dict[int, int] = {}
    pos = 0
    if not s:
        raise InputError("empty coefficient")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        coef, has_l = m.group("coef"), m.group("l") is not None
        if (
            (coef is None and not has_l)  # no term here
            or (pos and not m.group("sign"))  # juxtaposed to the term before
            or (m.group("star") is not None) != (coef is not None and has_l)  # "2*", "2L"
        ):
            raise InputError(f"cannot parse coefficient {text!r} at {s[pos:]!r}")
        c = (-1 if m.group("sign") == "-" else 1) * int(coef or 1)
        e = int(m.group("exp") or 1) if has_l else 0
        if max(abs(e), den_pow) > COEFF_MAX_EXPONENT:
            raise InputError(f"coefficient {text!r} has an exponent over {COEFF_MAX_EXPONENT}")
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    return MCoeff.make(LaurentPoly.from_dict(coeffs), den_pow)


# Texts kept by parse_coeff, set by measurement (Python 3.11).  The seed-0
# fan-invariance pool parses 2,632 weights over three texts, "1", "L-1" and
# "L^2-2*L+1", which 1 and 2 entries miss 954 and 562 times and 4 entries 3
# times; newton-large parses 600 over two, and the 1,340-cell resolution of
# the rank-4 index-166 cone 1,325 over one.  An entry is one short text and
# one coefficient, so the bound leaves room for hand-written models with
# many distinct weights.
_COEFF_TABLE_SIZE = 256
_coeff_table = lru_cache(maxsize=_COEFF_TABLE_SIZE)(_read_coeff)


def parse_mclass(obj: dict[str, Any]) -> MClass:
    return MClass({sym: parse_coeff(str(c)) for sym, c in obj.items()})


def mclass_to_json(c: MClass) -> dict[str, str]:
    return {sym: str(coeff) for sym, coeff in c.sorted_terms()}


def series_to_json(s: ZSeries) -> dict[str, Any]:
    return {
        "terms": [
            {
                "coeff": {sym: str(coeff) for sym, coeff in c.terms.items()},
                "T_exp": beta,
                "denominators": [[a, b] for a, b in denoms],
            }
            for (beta, denoms), c in s.sorted_terms()
        ]
    }


# ---------------------------------------------------------------------------
# File loading.


def load_input(path: str) -> dict[str, Any]:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")
    return _object(data, path)


def input_kind(data: dict[str, Any]) -> str:
    if "support" in data:
        return "newton"
    if "components" in data:
        return "sncd"
    if "cells" in data:
        return "fan"
    raise InputError("unrecognized input: expected 'support', 'components' or 'cells'")


def _object(x: Any, what: str) -> dict[str, Any]:
    if not isinstance(x, dict):
        raise InputError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x


def _field(obj: Any, key: str, where: str = "the input", *at: int) -> Any:
    """The field ``key`` of the JSON object ``obj``, which ``where`` names,
    its ``{}`` filled from ``at`` only on a fault, so a parser's loop
    formats no place per item.  A missing field, or an ``obj`` that is no
    object, raises a ``ValueError`` that names it in words, for the parser
    to prefix with the input kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where.format(*at)} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where.format(*at)} has no field {key!r}")
    return obj[key]


def _array(x: Any, what: str, *at: int) -> list:
    """``x``, a JSON array; anything else raises as :func:`_field` does."""
    if not isinstance(x, list):
        raise ValueError(f"{what.format(*at)} must be a JSON array, got {type(x).__name__}")
    return x


def _vectors(x: Any, what: str, entry: str, *at: int) -> list[tuple[int, ...]]:
    """``x``, a JSON array of arrays of integers, as tuples, named as
    :func:`_field` names its object; ``entry`` names an integer in the
    messages of :func:`_int`."""
    out = []
    for j, v in enumerate(_array(x, what, *at)):
        if not isinstance(v, list):
            raise ValueError(f"{what.format(*at)}[{j}] must be a JSON array, got {type(v).__name__}")
        out.append(tuple(_int(c, entry) for c in v))
    return out


# Largest ambient rank, the fan model's ``rank`` and the Newton input's
# ``n``: the simplicial route of cone_from_rays and the double description
# build n lines of length n, so the cost grows with the square of the rank.
# Measured with the CLI under a 2 GB address-space cap (2-vCPU Xeon, Python
# 3.11), a fan model of one ray [1, 0, ...] takes 0.15 s of wall time in
# fan-series at rank 64, 4.3 s at 2,000 and 14.0 s at 4,000, and ends in a
# MemoryError after 36 s at 8,000.  A one-point Newton support in N^n has
# 2^n faces: newton-poles answers at n = 12 in 0.54 s, and the face bound
# refuses it from n = 13 on, after 0.38 s at n = 64, 2.7 s at 200, 22 s at
# 400 and 146 s at 800.  A pointed cell of dimension d has at least 2^d
# faces, so no rank past 13 holds a full-dimensional pointed cell within
# that bound.
MAX_RANK = 64


def _int(x: Any, what: str) -> int:
    """A JSON integer; booleans, fractional numbers and strings are refused
    rather than coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


# Exponent notation in a Newton coefficient: ``Fraction`` expands "1e999999999"
# digit by digit, so it is refused before it is read.
_EXPONENT_RE = re.compile(r"[\d.][eE]")


def _newton_coefficient(val: Any) -> Fraction:
    """A rational coefficient in any form ``Fraction`` reads from ``str(val)``,
    but for exponent notation in a string and a zero denominator."""
    if isinstance(val, str) and _EXPONENT_RE.search(val):
        raise InputError(f"bad newton input: coefficient {val!r} is in exponent notation")
    try:
        return Fraction(str(val))
    except ZeroDivisionError:
        raise InputError(f"bad newton input: coefficient {val!r} has a zero denominator")
    except ValueError as e:
        raise InputError(f"bad newton input: {e}")


def _newton_point(key: str) -> tuple[int, ...]:
    """The support point of a coefficient key such as ``"(2,0)"``."""
    try:
        return tuple(int(x) for x in key.strip("()").split(","))
    except ValueError:
        raise InputError(f"bad newton input: coefficient key {key!r} is not a point of integers")


def parse_newton(data: dict[str, Any]) -> NewtonInput:
    try:
        n = _int(_field(data, "n"), "n")
        support = tuple(_vectors(_field(data, "support"), "support", "support coordinate"))
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, InputError):
            raise
        raise InputError(f"bad newton input: {e}")
    if n > MAX_RANK:
        raise InputError(f"bad newton input: n {n} is over {MAX_RANK}")
    coeffs = None
    if data.get("coeffs") is not None:
        coeffs = {}
        for key, val in _object(data["coeffs"], "coeffs").items():
            coeffs[_newton_point(key)] = _newton_coefficient(val)
    try:
        return NewtonInput(n, support, coeffs)
    except ValueError as e:
        raise InputError(str(e))


def parse_sncd(data: dict[str, Any]) -> SncdData:
    try:
        comps = []
        for i, c in enumerate(_array(_field(data, "components"), "components")):
            comps.append(
                SncdComponent(
                    id=str(_field(c, "id", "components[{}]", i)),
                    N=_int(_field(c, "N", "components[{}]", i), "N"),
                    mu=_int(c["mu"], "mu") if c.get("mu") is not None else None,
                    nu=_int(c["nu"], "nu") if c.get("nu") is not None else None,
                )
            )
        strata = []
        for i, s in enumerate(_array(_field(data, "strata"), "strata")):
            ids: set[str] = set()
            for j in map(str, _array(_field(s, "J", "strata[{}]", i), "strata[{}].J", i)):
                if j in ids:
                    raise ValueError(f"strata[{i}].J lists {j!r} twice")
                ids.add(j)
            strata.append((frozenset(ids), str(_field(s, "symbol", "strata[{}]", i))))
        return SncdData(_int(_field(data, "m"), "m"), tuple(comps), tuple(strata))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad sncd input: {e}")


def parse_fan(data: dict[str, Any]) -> FanModel:
    try:
        rank = _int(_field(data, "rank"), "rank")
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is over {MAX_RANK}")
        listed = {}  # the cells, in input order
        weights = {}
        for i, cell_data in enumerate(_array(_field(data, "cells"), "cells")):
            rays = _vectors(_field(cell_data, "rays", "cells[{}]", i), "cells[{}].rays", "ray coordinate", i)
            cell = cone_from_rays(rank, rays)
            if cell in listed:
                raise InputError(f"cell {cell} listed twice")
            listed[cell] = None
            w = parse_mclass(_object(cell_data.get("weight", {}), "cell weight"))
            if not w.is_zero():
                weights[cell] = w
        complex_ = complex_from_cones(rank, list(listed))
        # every maximal cell is a listed one: the closure adds only faces
        maximal_set = set(complex_.maximal_cells())
        ordered = [c for c in listed if c in maximal_set]
        e_list = _vectors(_field(data, "e"), "e", "e entry")
        a_list = _vectors(_field(data, "a"), "a", "a entry")
        if len(e_list) != len(ordered) or len(a_list) != len(ordered):
            raise InputError(
                f"need one e and one a vector per maximal cell ({len(ordered)} cells)"
            )
        e_vecs = dict(zip(ordered, e_list))
        a_vecs = dict(zip(ordered, a_list))
        return FanModel(complex_, e_vecs, a_vecs, weights)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, InputError):
            raise
        raise InputError(f"bad fan-model input: {e}")


def fan_to_json(f: FanModel) -> dict[str, Any]:
    maximal = f.complex.maximal_cells()
    maximal_set = set(maximal)
    ordered = list(maximal) + [c for c in f.complex.cells if c not in maximal_set]
    cells = []
    e_list = []
    a_list = []
    for cell in ordered:
        entry: dict[str, Any] = {"rays": [list(r) for r in cell.rays]}
        w = f.weights.get(cell)
        if w:
            entry["weight"] = mclass_to_json(w)
        cells.append(entry)
    for mc in maximal:
        e_list.append(list(f.e_vecs[mc]))
        a_list.append(list(f.a_vecs[mc]))
    return {"rank": f.complex.ambient_rank, "cells": cells, "e": e_list, "a": a_list}


# ---------------------------------------------------------------------------
# Verbs: one row each, which build_parser and main read.


class Verb(NamedTuple):
    """A verb's help text, its options beyond ``input`` and ``--json`` as
    ``(flag, add_argument keywords)`` pairs, ``compute(data, args)`` on the
    loaded input, ``lines(result, args)``, the whole lines it prints (no
    lines print nothing, and one empty line prints a newline), and the help
    text of its ``--json`` flag, which says what the flag does for it."""

    help: str
    options: tuple[tuple[str, dict[str, Any]], ...]
    compute: Callable[[dict[str, Any], argparse.Namespace], Any]
    lines: Callable[[Any, argparse.Namespace], list[str]]
    json: str = "emit JSON instead of text"


def _series_lines(s: ZSeries, args) -> list[str]:
    return [json.dumps(series_to_json(s), sort_keys=True) if args.json else str(s)]


def _pole_lines(poles, args) -> list[str]:
    return [json.dumps({"poles": [str(p) for p in sorted(poles)]}) if args.json else format_poles(poles)]


def _class_lines(c: MClass, args) -> list[str]:
    return [json.dumps(mclass_to_json(c), sort_keys=True) if args.json else str(c)]


def _expansion_lines(coeffs: list[MClass], args) -> list[str]:
    if args.json:
        return [json.dumps([mclass_to_json(c) for c in coeffs], sort_keys=True)]
    return [f"T^{d}: {c}" for d, c in enumerate(coeffs, start=1)]


def _model_lines(model: FanModel, args) -> list[str]:
    return [json.dumps(fan_to_json(model), sort_keys=True)]


def _probe_lines(result, args) -> list[str]:
    status, face, witness = result
    if args.json:
        return [json.dumps({"status": status, "face": face, "witness": list(witness) if witness else None})]
    return [f"fail: face {face} has a singular torus point {witness} mod {args.prime}" if status == "fail" else status]


def _checked_fan(data: dict[str, Any]) -> FanModel:
    """The fan model, which must be valid: main prints the diagnostics of an
    invalid one and exits 2."""
    model = parse_fan(data)
    if problems := validate_model(model):
        raise InvalidModel(problems)
    return model


def _nearby(data, args) -> MClass:
    if input_kind(data) != "sncd":
        raise InputError("nearby expects sncd data with nu orders")
    return nearby_fibre(dl_zeta(parse_sncd(data)))


def _expansion(data, args) -> list[MClass]:
    kind = input_kind(data)
    if kind == "newton":
        series = newton_zeta(parse_newton(data))
    elif kind == "sncd":
        d = parse_sncd(data)
        series = dl_zeta(d) if all(c.nu is not None for c in d.components) else sncd_poincare(d)
    else:
        series = fan_poincare(parse_fan(data), args.m)
    return series.expand(args.degree)


def _subdivided(data, args) -> FanModel:
    model = _checked_fan(data)
    try:
        ray = tuple(int(x) for x in args.ray.split(","))
    except ValueError:
        raise InputError(f"bad ray {args.ray!r}")
    rank = model.complex.ambient_rank
    if len(ray) != rank:
        raise InputError(f"bad ray {args.ray!r}: a ray of the rank-{rank} model has {rank} coordinates, not {len(ray)}")
    if not any(ray):
        raise InputError(f"bad ray {args.ray!r}: a ray of the rank-{rank} model must be nonzero")
    return transport_subdivide(model, star_subdivision(model.complex, ray))


# what --json does for subdivide and resolve, which print the same line either way
_MODEL_JSON = "no effect: the model is printed as JSON either way"

_M = ("--m", {"type": int, "default": 0, "help": "relative dimension"})
_DEGREE = ("--degree", {"type": int, "required": True, "help": "expansion degree"})
_RAY = ("--ray", {"required": True, "help": "subdivision ray, comma separated"})
_PRIME = ("--prime", {"type": int, "required": True, "help": "probe prime"})

VERBS = {
    "newton-zeta": Verb(
        "global zeta function from a Newton support", (), lambda d, a: newton_zeta(parse_newton(d)), _series_lines
    ),
    "newton-zeta-local": Verb(
        "local zeta function at the origin", (), lambda d, a: newton_zeta_local(parse_newton(d)), _series_lines
    ),
    "newton-poles": Verb(
        "candidate poles from the Newton polyhedron", (), lambda d, a: newton_poles(parse_newton(d)), _pole_lines
    ),
    "sncd-zeta": Verb(
        "volume Poincare series of sncd data (uses mu)", (), lambda d, a: sncd_poincare(parse_sncd(d)), _series_lines
    ),
    "dl-zeta": Verb(
        "motivic zeta function of sncd data (uses nu)", (), lambda d, a: dl_zeta(parse_sncd(d)), _series_lines
    ),
    # fan_poincare validates the model itself
    "fan-series": Verb(
        "volume Poincare series of a fan model", (_M,), lambda d, a: fan_poincare(parse_fan(d), a.m), _series_lines
    ),
    "fan-poles": Verb("candidate poles of a fan model", (), lambda d, a: fan_poles(_checked_fan(d)), _pole_lines),
    "nearby": Verb("motivic nearby fibre of sncd data", (), _nearby, _class_lines),
    "expand": Verb("series coefficients T^1..T^D", (_DEGREE, _M), _expansion, _expansion_lines),
    "subdivide": Verb("star-subdivide a fan model at a ray", (_RAY,), _subdivided, _model_lines, _MODEL_JSON),
    "resolve": Verb(
        "resolve a fan model to smooth cells",
        (),
        lambda d, a: transport_subdivide(model := _checked_fan(d), resolve_complex(model.complex)),
        _model_lines,
        _MODEL_JSON,
    ),
    "validate": Verb(
        "check fan-model invariants",
        (),
        lambda d, a: _checked_fan(d),
        lambda model, a: ["ok"],
        "no effect: the verdict is printed as text either way",
    ),
    "probe-nondegenerate": Verb(
        "finite-field nondegeneracy probe",
        (_PRIME,),
        lambda d, a: nondegeneracy_probe(parse_newton(d), a.prime),
        _probe_lines,
    ),
}

# argparse's own negative numbers, and a comma-separated ray that starts with
# a negative coordinate: "-1,0" is read as a value, as "-1" is
_NEGATIVE_NUMBER = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    description = "Motivic zeta functions from combinatorial models, exactly."
    parser = argparse.ArgumentParser(prog="logzeta", description=description)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("input", help="input JSON file")
        p.add_argument("--json", action="store_true", help=verb.json)
        for flag, kwargs in verb.options:
            p.add_argument(flag, **kwargs)
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, after printing the usage line to
        # stderr, and 0 after --help; exit 2 is kept for printed diagnostics
        return 1 if e.code else 0
    verb = VERBS[args.verb]
    try:
        for line in verb.lines(verb.compute(load_input(args.input), args), args):
            print(line)
        return 0
    except InvalidModel as d:
        for p in d.problems:
            print(p)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
