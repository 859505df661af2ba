"""Per-layer spans around the library's public functions, installed from outside.

Nothing in ``logzeta`` is edited: :func:`install` replaces each traced
function by a timing wrapper, in every ``logzeta`` module that holds it
(``from .cones import faces`` binds its own name in each importing module),
and wraps methods on their class.  A span's self time is its duration minus
the time of the spans it encloses, so the self times of all groups add up to
the traced part of an op without double counting.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# span group -> traced callables, as (module, name) or (module, class, name)
GROUPS: dict[str, list[tuple[str, ...]]] = {
    "intlin.snf": [("intlin", "hermite_normal_form"), ("intlin", "smith_normal_form")],
    "intlin.solve": [
        ("intlin", "solve_integer"),
        ("intlin", "solve_rational"),
        ("intlin", "inverse_rational"),
        ("intlin", "saturation_basis"),
        ("intlin", "kernel_basis"),
        ("intlin", "rank"),
        ("intlin", "det"),
    ],
    "cones.dd": [("cones", "cone_from_rays"), ("cones", "cone_from_facets"), ("cones", "cone_intersection")],
    "cones.complex_validate": [("cones", "ConeComplex", "validate")],
    "cones.faces": [("cones", "faces")],
    "cones.triangulate": [("cones", "triangulate_half_open")],
    "cones.box": [("cones", "box_points")],
    "cones.refine": [("cones", "star_subdivision"), ("cones", "resolve_complex"), ("cones", "check_subdivision")],
    "monoids": [
        ("monoids", "SharpFsMonoid", "__post_init__"),
        ("monoids", "SharpFsMonoid", "dual"),
        ("monoids", "MarkedMonoid", "__post_init__"),
        ("monoids", "MarkedMonoid", "is_local"),
    ],
    "mring.coeff_make": [("mring", "MCoeff", "make")],
    "mring.other": [
        ("mring", "MCoeff", "__add__"),
        ("mring", "MCoeff", "__mul__"),
        ("mring", "MClass", "__add__"),
        ("mring", "MClass", "__mul__"),
        ("mring", "MClass", "scale_l"),
        ("mring", "MClass", "mul_l1_pow"),
    ],
    "series.add": [("series", "ZSeries", "__add__")],
    "series.cone_series": [("series", "cone_series")],
    "series.equal": [("series", "equal")],
    "series.expand": [("series", "ZSeries", "expand")],
    "zeta.validate_model": [("zeta", "validate_model")],
    "zeta.fan_poincare": [("zeta", "fan_poincare")],
    "zeta.transport": [("zeta", "transport_subdivide")],
    "newton.polyhedron": [("newton", "newton_polyhedron")],
    "newton.zeta": [("newton", "newton_zeta"), ("newton", "newton_zeta_local")],
    "cli.parse": [("cli", "parse_newton"), ("cli", "parse_fan")],
}

# groups whose result length is a work count: group -> counter name
SIZES = {"cones.triangulate": "cones.triangulate.pieces", "cones.box": "cones.box.points"}


class Spans:
    """Call counts, self times and result sizes per span group."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self._child = [0.0]  # enclosed-span time, one slot per open span

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.sizes.clear()

    def wrap(self, group: str, fn):
        calls, self_s, sizes, child = self.calls, self.self_s, self.sizes, self._child
        size_key = SIZES.get(group)

        def span(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[group] += dt - child.pop()
                child[-1] += dt
                calls[group] += 1
            if size_key is not None:
                sizes[size_key] += len(result)
            return result

        return span


def install(spans: Spans) -> None:
    """Wrap every callable in :data:`GROUPS`, recording into ``spans``."""
    mods = {k: v for k, v in sys.modules.items() if k == "logzeta" or k.startswith("logzeta.")}
    for group, targets in GROUPS.items():
        for target in targets:
            module = mods[f"logzeta.{target[0]}"]
            if len(target) == 3:
                cls = getattr(module, target[1])
                raw = cls.__dict__[target[2]]
                if isinstance(raw, staticmethod):
                    setattr(cls, target[2], staticmethod(spans.wrap(group, raw.__func__)))
                else:
                    setattr(cls, target[2], spans.wrap(group, raw))
                continue
            fn = getattr(module, target[1])
            wrapped = spans.wrap(group, fn)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)
