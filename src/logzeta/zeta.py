"""Zeta-function pipelines over the shared cone/series machinery.

Two kinds of combinatorial input are assembled here:

* :class:`SncdData` — multiplicities and weight orders of the components of
  a normal crossings special fibre, plus one opaque class symbol per
  nonempty stratum;
* :class:`FanModel` — a cone complex in valuation space with a piecewise
  linear uniformizer functional ``e``, a divisor functional ``a`` (both
  given by one dual vector per maximal cell, agreeing on shared faces) and
  one weight class per cell.

The central operation is :func:`fan_poincare`, the closed form of the
weighted sum over the complex's cells of the interior dual-point generating
functions.  Cells on which ``e`` vanishes identically belong to the generic
part of the model and contribute nothing (they are only checked for
smoothness); a ray paired to zero by ``e`` inside a contributing cell must
pair to one with ``a``.  A model keeps the verdict of :func:`validate_model`,
which :func:`transport_subdivide` hands on, checking the new cells only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Literal, Mapping, Optional

from .cones import Cone, ConeComplex, _carriers, complex_from_cones, cone_from_rays
from .intlin import Vec, dot
from .mring import MClass
from .series import ZSeries, _relint_buckets, _weighted_sum


# ---------------------------------------------------------------------------
# sncd data and the Denef-Loeser style formulas.


@dataclass(frozen=True)
class SncdComponent:
    id: str
    N: int
    mu: Optional[int] = None
    nu: Optional[int] = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"component {self.id}: multiplicity must be positive")


@dataclass(frozen=True)
class SncdData:
    m: int
    components: tuple[SncdComponent, ...]
    strata: tuple[tuple[frozenset, str], ...]  # (subset of ids, class symbol)

    def __post_init__(self):
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate component ids")
        seen = set()
        for subset, symbol in self.strata:
            MClass.symbol(symbol)  # raises on an empty or malformed class symbol
            if not subset:
                raise ValueError("empty stratum")
            if subset in seen:
                raise ValueError(f"duplicate stratum {sorted(subset)}")
            seen.add(subset)
            for i in subset:
                if i not in ids:
                    raise ValueError(f"stratum references unknown component {i!r}")

    def component(self, cid: str) -> SncdComponent:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)


def _strata_sum(d: SncdData, order: Literal["mu", "nu"]) -> ZSeries:
    """The strata sum of :func:`sncd_poincare` (``order="mu"``, before the
    L^{-m} factor) and of :func:`dl_zeta` (``order="nu"``)."""
    orders = {}
    for c in d.components:
        if getattr(c, order) is None:
            raise ValueError(f"component {c.id} carries no {order}")
        orders[c.id] = getattr(c, order)
    parts = []
    for subset, symbol in d.strata:
        ids = sorted(subset)
        coeff = MClass.symbol(symbol).mul_l1_pow(len(ids) - 1)
        coeff = coeff.scale_l(-sum(orders[i] for i in ids))
        beta = sum(d.component(i).N for i in ids)
        denoms = [(-orders[i], d.component(i).N) for i in ids]
        parts.append(ZSeries.term(coeff, beta, denoms))
    return ZSeries.sum(parts)


def sncd_poincare(d: SncdData) -> ZSeries:
    """Volume Poincare series of an sncd model: L^{-m} times the sum over
    strata of (L-1)^{|J|-1} [symbol_J] prod_j L^{-mu_j} T^{N_j} / (1 - L^{-mu_j} T^{N_j}).
    """
    return _strata_sum(d, "mu") * ZSeries.term(MClass.l_power(-d.m), 0)


def dl_zeta(d: SncdData) -> ZSeries:
    """Motivic zeta function from a resolution:
    sum over strata of (L-1)^{|J|-1} [symbol_J] prod_j L^{-nu_j} T^{N_j} / (1 - L^{-nu_j} T^{N_j}).
    """
    return _strata_sum(d, "nu")


def nearby_fibre(z: ZSeries) -> MClass:
    """Motivic nearby fibre: minus the T -> infinity limit of the series."""
    return -z.limit_T_inf()


# ---------------------------------------------------------------------------
# Fan models.


@dataclass(frozen=True)
class FanModel:
    """Cone complex with uniformizer/divisor functionals and cell weights.

    ``e_vecs`` and ``a_vecs`` give one dual vector per maximal cell;
    ``weights`` has one class per cell (cells missing from the mapping count
    as zero).  Weights are understood to already include their
    (L-1)^(dim-1) factor.  The mappings are copied into read-only ones, and
    an e or a vector whose length is not the rank raises ``ValueError``.
    """

    complex: ConeComplex
    e_vecs: Mapping[Cone, Vec]
    a_vecs: Mapping[Cone, Vec]
    weights: Mapping[Cone, MClass] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("e_vecs", "a_vecs", "weights"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        rank = self.complex.ambient_rank
        for name, vecs in (("e", self.e_vecs), ("a", self.a_vecs)):
            for v in vecs.values():
                if len(v) != rank:
                    raise ValueError(f"{name} vector {list(v)} has length {len(v)}, not the rank {rank}")

    def __reduce__(self):
        # a read-only mapping does not pickle, so a copy is built from dicts
        return FanModel, (self.complex, dict(self.e_vecs), dict(self.a_vecs), dict(self.weights))

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        maximal = set(self.complex.maximal_cells())
        if set(self.e_vecs) != maximal or set(self.a_vecs) != maximal:
            return (*self.complex.validate(), "e/a vectors must be indexed by the maximal cells")
        strays = {f"weight on {c}, which is not a cell" for c in self.weights.keys() - set(self.complex.cells)}
        return tuple(sorted({*self.complex.validate(), *_cell_problems(self, self.complex.cells), *strays}))

    def owning_maximal(self, cell: Cone) -> Cone:
        """The first maximal cell, in cell order, containing a cell of the complex."""
        return self.complex.owners(cell)[0]

    def weight(self, cell: Cone) -> MClass:
        return self.weights.get(cell, MClass.zero())

    def e_identically_zero(self, cell: Cone) -> bool:
        owner = self.owning_maximal(cell)
        return all(dot(self.e_vecs[owner], r) == 0 for r in cell.rays)


class InvalidModel(ValueError):
    """A fan model that breaks the invariants of :func:`validate_model`;
    ``problems`` holds its diagnostics."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid model: " + "; ".join(problems[:3]))
        self.problems = problems


def validate_model(f: FanModel) -> list[str]:
    """Diagnostics for the model invariants; empty when the model is legal.

    Checked: complex validity, nonnegativity of e on the support, face
    consistency of e and a across maximal cells, smoothness of cells with
    identically zero e, and the horizontal-divisor rule (a ray paired to
    zero by e inside a contributing cell must pair to one with a).  The
    verdict is kept on the model; see :func:`transport_subdivide`.
    """
    return list(f._problems)


def _cell_problems(f: FanModel, cells: Iterable[Cone]) -> Iterator[str]:
    """The per-cell diagnostics of :func:`validate_model` at ``cells``."""
    for cell in cells:
        owners = f.complex.owners(cell)
        for r in cell.rays:
            for x, vecs in (("e", f.e_vecs), ("a", f.a_vecs)):
                if len({dot(vecs[mc], r) for mc in owners}) > 1:
                    yield f"inconsistent {x} across shared face at ray {r}"
        generic = f.e_identically_zero(cell)
        if generic and not cell.is_smooth:
            yield f"cell {cell} lies in the generic part (e = 0) but is not smooth"
        if cell in owners:  # a maximal cell
            evec, avec = f.e_vecs[cell], f.a_vecs[cell]
            for r in cell.rays:
                if dot(evec, r) < 0:
                    yield f"e negative on ray {r} of {cell}"
                elif not generic and dot(evec, r) == 0 and dot(avec, r) != 1:
                    yield (
                        "horizontal-divisor rule: ray "
                        f"{r} has e-value 0 but a-value {dot(avec, r)} (expected 1)"
                    )


def _cell_in_span(f: FanModel, cell: Cone) -> tuple[tuple[Vec, ...], tuple[int, ...], int, Vec, Vec]:
    """A pointed cell's sorted rays, the ray masks of its pointed facets, its
    dimension, and its e and a, in coordinates of its saturated span
    lattice: the arguments of the cone-sum kernel.

    The lattice points of the reduced cell are exactly those of the cell.
    Triangulating there rather than in ambient coordinates fixes the ray
    order that the pulling triangulation follows, which keeps printed
    series canonical on lower-dimensional cells.  A valid model's cells are
    pointed: ``e >= 0`` on a line forces ``e = 0`` there, which the
    horizontal-divisor rule or the generic part's smoothness refuses.
    """
    owner = f.owning_maximal(cell)
    rays, on_facet, span, _ = cell.span_coordinates
    e_red = tuple(dot(f.e_vecs[owner], b) for b in span)
    a_red = tuple(dot(f.a_vecs[owner], b) for b in span)
    return rays, on_facet, cell.dim, e_red, a_red


def fan_poincare(f: FanModel, m: int) -> ZSeries:
    """Weighted sum of interior cone series over the special cells, times
    L^{-m}: one kernel call over the contributing cells, in complex order,
    so their box points count against one bound."""
    problems = validate_model(f)
    if problems:
        raise InvalidModel(problems)
    live = [cell for cell in f.complex.cells if f.weights.get(cell) and not f.e_identically_zero(cell)]
    sums = _relint_buckets(_cell_in_span(f, cell) for cell in live)
    return _weighted_sum(zip(sums, (f.weights[cell].scale_l(-m) for cell in live)))


def fan_poles(f: FanModel) -> frozenset[Fraction]:
    """Candidate poles: -a/e over the rays of the complex with positive e."""
    out = set()
    for cell in f.complex.cells:
        if cell.dim != 1:
            continue
        (ray,) = cell.pointed_rays()
        owner = f.owning_maximal(cell)
        ev = dot(f.e_vecs[owner], ray)
        if ev > 0:
            out.add(Fraction(-dot(f.a_vecs[owner], ray), ev))
    return frozenset(out)


def sncd_to_fanmodel(d: SncdData) -> FanModel:
    """Orthant model of sncd data: one coordinate per component.

    The cell for a declared stratum J is the orthant face spanned by the
    coordinates in J, weighted (L-1)^{|J|-1}[symbol_J]; undeclared faces get
    weight zero.  The uniformizer vector collects the multiplicities, the
    divisor vector the weight orders.
    """
    n = len(d.components)
    index = {c.id: i for i, c in enumerate(d.components)}
    for c in d.components:
        if c.mu is None:
            raise ValueError(f"component {c.id} carries no mu")
    cells = []
    weights: dict[Cone, MClass] = {}
    for subset, symbol in d.strata:
        rays = [tuple(1 if j == index[i] else 0 for j in range(n)) for i in subset]
        cell = cone_from_rays(n, rays)
        cells.append(cell)
        weights[cell] = MClass.symbol(symbol).mul_l1_pow(len(subset) - 1)
    complex_ = complex_from_cones(n, cells)
    e_vec = tuple(c.N for c in d.components)
    a_vec = tuple(c.mu for c in d.components)
    e_vecs = {mc: e_vec for mc in complex_.maximal_cells()}
    a_vecs = {mc: a_vec for mc in complex_.maximal_cells()}
    return FanModel(complex_, e_vecs, a_vecs, weights)


def transport_subdivide(f: FanModel, kp: ConeComplex) -> FanModel:
    """Move a model to a subdivision of its complex.

    Weights are copied unchanged from the unique old cell whose relative
    interior contains the new cell's relative interior (its carrier); the
    functionals of a new maximal cell are those of its carrier's owner,
    restricted.

    A legal model's verdict is handed on, checked at the new cells only,
    along its complex or any refinement ``star_subdivision`` certified.
    Being certified proves ``kp`` valid, whatever complex its chain started
    from, and the carriers prove that it refines the model's complex.  Then
    the owners of a cell take functionals that are nonnegative on it and
    agree on its carrier's span, so an old cell keeps whether e vanishes on
    it and an old maximal cell was maximal.
    """
    carriers = _carriers(kp, f.complex)
    if carriers is None:
        raise ValueError("not a subdivision of the model's complex")
    carrier = dict(zip(kp.cells, carriers))
    new_weights: dict[Cone, MClass] = {}
    for cell, old in carrier.items():
        w = f.weights.get(old)
        if w:
            new_weights[cell] = w
    owner = {mc: f.owning_maximal(carrier[mc]) for mc in kp.maximal_cells()}
    new_e = {mc: f.e_vecs[o] for mc, o in owner.items()}
    new_a = {mc: f.a_vecs[o] for mc, o in owner.items()}
    moved = FanModel(kp, new_e, new_a, new_weights)
    if (kp is f.complex or kp._certificate is not None) and not f._problems:
        new = [cell for cell, old in carrier.items() if cell != old]
        vars(moved)["_problems"] = tuple(sorted(set(_cell_problems(moved, new))))
    return moved
