#!/usr/bin/env python3
"""Subdivision-invariance demonstration.

Builds an orthant model carrying normal-crossings data, star-subdivides it
at a random interior point, resolves it to smooth cells, and verifies that
the volume Poincare series never changes.
"""

import random
import sys

from logzeta.cones import resolve_complex, star_subdivision
from logzeta.series import equal
from logzeta.zeta import (
    SncdComponent,
    SncdData,
    fan_poincare,
    sncd_poincare,
    sncd_to_fanmodel,
    transport_subdivide,
    validate_model,
)


def main(seed: int = 0) -> None:
    rng = random.Random(seed)
    comps = tuple(
        SncdComponent(f"c{i}", N=rng.randint(1, 4), mu=rng.randint(-2, 3))
        for i in range(3)
    )
    ids = [c.id for c in comps]
    strata = tuple(
        (frozenset(ids[i] for i in range(3) if mask >> i & 1), f"S{mask}")
        for mask in range(1, 8)
    )
    data = SncdData(2, comps, strata)
    model = sncd_to_fanmodel(data)
    assert validate_model(model) == []
    base = fan_poincare(model, data.m)
    print("base series:")
    print(" ", base)
    print("\nequals the stratum-sum formula:", base.terms == sncd_poincare(data).terms)

    point = tuple(rng.randint(1, 3) for _ in range(3))
    subdivided = transport_subdivide(model, star_subdivision(model.complex, point))
    print(f"\nafter star subdivision at {point}:")
    print("  cells:", len(subdivided.complex.cells), " series unchanged:", equal(fan_poincare(subdivided, data.m), base))

    resolved = transport_subdivide(model, resolve_complex(subdivided.complex))
    smooth = all(c.is_smooth for c in resolved.complex.cells)
    print("\nafter resolution to smooth cells:")
    print("  cells:", len(resolved.complex.cells), " all smooth:", smooth,
          " series unchanged:", equal(fan_poincare(resolved, data.m), base))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
