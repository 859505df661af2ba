"""Command-line front end: one verb per pipeline, file in, stdout out.

Input kinds are recognized by schema: an object with ``support`` is Newton
input, with ``components`` sncd data, with ``cells`` a fan model.  Exit
status is 0 on success, 2 when validation diagnostics were printed, 1 on
parse or usage errors and when a computation gives up (a loop guard or an
internal check raising ``RuntimeError``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any

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
        for name, vecs in (("e", e_list), ("a", a_list)):
            for v in vecs:
                if len(v) != rank:
                    raise ValueError(f"{name} vector {list(v)} has length {len(v)}, not the rank {rank}")
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
        w = f.weight(cell)
        if not w.is_zero():
            entry["weight"] = mclass_to_json(w)
        cells.append(entry)
    for mc in maximal:
        e_list.append(list(f.e_vecs[mc]))
        a_list.append(list(f.a_vecs[mc]))
    return {"rank": f.complex.ambient_rank, "cells": cells, "e": e_list, "a": a_list}


# ---------------------------------------------------------------------------
# Commands.


def _emit_series(s: ZSeries, args) -> int:
    if args.json:
        print(json.dumps(series_to_json(s), sort_keys=True))
    else:
        print(s)
    return 0


def _emit_poles(poles, args) -> int:
    if args.json:
        print(json.dumps({"poles": [str(p) for p in sorted(poles)]}))
    else:
        print(format_poles(poles))
    return 0


def cmd_newton_zeta(args) -> int:
    return _emit_series(newton_zeta(parse_newton(load_input(args.input))), args)


def cmd_newton_zeta_local(args) -> int:
    return _emit_series(newton_zeta_local(parse_newton(load_input(args.input))), args)


def cmd_newton_poles(args) -> int:
    return _emit_poles(newton_poles(parse_newton(load_input(args.input))), args)


def cmd_sncd_zeta(args) -> int:
    return _emit_series(sncd_poincare(parse_sncd(load_input(args.input))), args)


def cmd_dl_zeta(args) -> int:
    return _emit_series(dl_zeta(parse_sncd(load_input(args.input))), args)


def _load_fan_checked(args) -> FanModel:
    model = parse_fan(load_input(args.input))
    problems = validate_model(model)
    if problems:
        raise InvalidModel(problems)
    return model


def cmd_fan_series(args) -> int:
    # fan_poincare validates the model itself
    return _emit_series(fan_poincare(parse_fan(load_input(args.input)), args.m), args)


def cmd_fan_poles(args) -> int:
    return _emit_poles(fan_poles(_load_fan_checked(args)), args)


def cmd_nearby(args) -> int:
    data = load_input(args.input)
    kind = input_kind(data)
    if kind != "sncd":
        raise InputError("nearby expects sncd data with nu orders")
    result = nearby_fibre(dl_zeta(parse_sncd(data)))
    if args.json:
        print(json.dumps(mclass_to_json(result), sort_keys=True))
    else:
        print(result)
    return 0


def cmd_expand(args) -> int:
    data = load_input(args.input)
    kind = input_kind(data)
    if kind == "newton":
        series = newton_zeta(parse_newton(data))
    elif kind == "sncd":
        d = parse_sncd(data)
        series = dl_zeta(d) if all(c.nu is not None for c in d.components) else sncd_poincare(d)
    else:
        series = fan_poincare(parse_fan(data), args.m)
    coeffs = series.expand(args.degree)
    if args.json:
        print(json.dumps([mclass_to_json(c) for c in coeffs], sort_keys=True))
    else:
        for d, c in enumerate(coeffs, start=1):
            print(f"T^{d}: {c}")
    return 0


def cmd_subdivide(args) -> int:
    model = _load_fan_checked(args)
    try:
        ray = tuple(int(x) for x in args.ray.split(","))
    except ValueError:
        raise InputError(f"bad ray {args.ray!r}")
    rank = model.complex.ambient_rank
    if len(ray) != rank:
        raise InputError(f"bad ray {args.ray!r}: a ray of the rank-{rank} model has {rank} coordinates, not {len(ray)}")
    if not any(ray):
        raise InputError(f"bad ray {args.ray!r}: a ray of the rank-{rank} model must be nonzero")
    new_model = transport_subdivide(model, star_subdivision(model.complex, ray))
    print(json.dumps(fan_to_json(new_model), sort_keys=True))
    return 0


def cmd_resolve(args) -> int:
    model = _load_fan_checked(args)
    new_model = transport_subdivide(model, resolve_complex(model.complex))
    print(json.dumps(fan_to_json(new_model), sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    _load_fan_checked(args)  # main prints the diagnostics and exits 2
    print("ok")
    return 0


def cmd_probe(args) -> int:
    inp = parse_newton(load_input(args.input))
    status, face, witness = nondegeneracy_probe(inp, args.prime)
    if args.json:
        print(
            json.dumps(
                {
                    "status": status,
                    "face": face,
                    "witness": list(witness) if witness else None,
                }
            )
        )
    else:
        if status == "fail":
            print(f"fail: face {face} has a singular torus point {witness} mod {args.prime}")
        else:
            print(status)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logzeta",
        description="Motivic zeta functions from combinatorial models, exactly.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_, *, degree=False, ray=False, prime=False, m=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="input JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if degree:
            p.add_argument("--degree", type=int, required=True, help="expansion degree")
        if ray:
            p.add_argument("--ray", required=True, help="subdivision ray, comma separated")
            # a ray may start with a negative coordinate: read "-1,0" as a
            # value, as argparse reads "-1"
            p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")
        if prime:
            p.add_argument("--prime", type=int, required=True, help="probe prime")
        if m:
            p.add_argument("--m", type=int, default=0, help="relative dimension")
        p.set_defaults(fn=fn)
        return p

    add("newton-zeta", cmd_newton_zeta, "global zeta function from a Newton support")
    add("newton-zeta-local", cmd_newton_zeta_local, "local zeta function at the origin")
    add("newton-poles", cmd_newton_poles, "candidate poles from the Newton polyhedron")
    add("sncd-zeta", cmd_sncd_zeta, "volume Poincare series of sncd data (uses mu)")
    add("dl-zeta", cmd_dl_zeta, "motivic zeta function of sncd data (uses nu)")
    add("fan-series", cmd_fan_series, "volume Poincare series of a fan model", m=True)
    add("fan-poles", cmd_fan_poles, "candidate poles of a fan model")
    add("nearby", cmd_nearby, "motivic nearby fibre of sncd data")
    add("expand", cmd_expand, "series coefficients T^1..T^D", degree=True, m=True)
    add("subdivide", cmd_subdivide, "star-subdivide a fan model at a ray", ray=True)
    add("resolve", cmd_resolve, "resolve a fan model to smooth cells")
    add("validate", cmd_validate, "check fan-model invariants")
    add("probe-nondegenerate", cmd_probe, "finite-field nondegeneracy probe", prime=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, after printing the usage line to
        # stderr, and 0 after --help; exit 2 is kept for printed diagnostics
        return 1 if e.code else 0
    try:
        return args.fn(args)
    except InvalidModel as d:
        for p in d.problems:
            print(p)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
