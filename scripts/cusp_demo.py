#!/usr/bin/env python3
"""End-to-end walkthrough on the cusp support {x^2, y^3}.

Prints the face report of the Newton polyhedron, the global and local zeta
functions, the candidate poles, and checks the identity relating the Newton
pipeline to the fan-model pipeline.
"""

import json

from logzeta.mring import MClass
from logzeta.newton import (
    NewtonInput,
    face_report,
    newton_poles,
    newton_to_fanmodel,
    newton_zeta,
    newton_zeta_local,
)
from logzeta.series import ZSeries, equal, format_poles
from logzeta.zeta import fan_poincare, validate_model


def main() -> None:
    inp = NewtonInput(2, ((2, 0), (0, 3)))
    print("support:", inp.support)
    print("\nface report:")
    print(json.dumps(face_report(inp), indent=2))

    z = newton_zeta(inp)
    print("\nglobal zeta function:")
    print(" ", z)
    print("\nlocal zeta function at the origin:")
    print(" ", newton_zeta_local(inp))
    print("\ncandidate poles:", format_poles(newton_poles(inp)))

    model = newton_to_fanmodel(inp)
    assert validate_model(model) == []
    lhs = fan_poincare(model, inp.n - 1).subst_T_L(-1) * ZSeries.term(MClass.l_power(inp.n - 1), 0)
    print("\nfan model has", len(model.complex.cells), "cells; series identity:", equal(lhs, z))

    print("\nexpansion up to T^6:")
    for d, c in enumerate(z.expand(6), start=1):
        print(f"  T^{d}: {c}")


if __name__ == "__main__":
    main()
