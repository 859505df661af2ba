import json
import os

import pytest

from logzeta.cli import main, parse_coeff, parse_fan
from logzeta.mring import LaurentPoly, MCoeff
from logzeta.series import equal
from logzeta.zeta import InvalidModel, fan_poincare

DATA = os.path.join(os.path.dirname(__file__), "..", "scripts", "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def path(name):
    return os.path.join(DATA, name)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------------------
# Coefficient text round-trip.


@pytest.mark.parametrize(
    "text",
    ["1", "-3", "L", "L^-1", "2*L^3", "L-1", "L^2-1", "-L+1", "(L^2-1)/(L-1)^2", "1/(L-1)"],
)
def test_parse_coeff_roundtrip(text):
    c = parse_coeff(text)
    assert parse_coeff(str(c)) == c


def test_parse_coeff_values():
    assert parse_coeff("L-1") == MCoeff.make(LaurentPoly.from_dict({1: 1, 0: -1}))
    assert parse_coeff("1/(L-1)") == MCoeff.make(LaurentPoly.one(), 1)
    with pytest.raises(ValueError):
        parse_coeff("T")


# ---------------------------------------------------------------------------
# Golden outputs.


def test_dl_zeta_single(capsys):
    code, out = run(capsys, "dl-zeta", path("single_component.json"))
    assert code == 0
    assert out.strip() == "[E]*L^-1*T/(1-L^-1*T)"


def test_newton_poles_cusp(capsys):
    code, out = run(capsys, "newton-poles", path("cusp_newton.json"))
    assert code == 0
    assert out.strip() == "-1, -5/6"


def test_validate_bad_model(capsys):
    code, out = run(capsys, "validate", path("bad_model.json"))
    assert code == 2
    assert "horizontal-divisor" in out


def test_validate_good_model(capsys):
    code, out = run(capsys, "validate", path("orthant_model.json"))
    assert code == 0
    assert out.strip() == "ok"


@pytest.mark.parametrize(
    "argv", [("fan-series",), ("expand", "--degree", "2"), ("fan-poles",), ("resolve",)]
)
def test_invalid_model_prints_diagnostics(capsys, argv):
    code, out = run(capsys, argv[0], path("bad_model.json"), *argv[1:])
    assert code == 2
    assert "horizontal-divisor" in out


# Two maximal cells whose interiors overlap.
OVERLAP_MODEL = {
    "rank": 2,
    "cells": [
        {"rays": [[1, 0], [1, 2]], "weight": {"U": "L-1"}},
        {"rays": [[1, 1], [0, 1]], "weight": {"V": "L-1"}},
    ],
    "e": [[1, 1], [1, 1]],
    "a": [[0, 0], [0, 0]],
}


def test_overlapping_cells_rejected(tmp_path, capsys):
    with pytest.raises(InvalidModel) as exc:
        fan_poincare(parse_fan(OVERLAP_MODEL), 0)
    problems = exc.value.problems
    assert (
        "Cone(rank 2, rays [(0, 1), (1, 1)]) and Cone(rank 2, rays [(1, 0), (1, 2)])"
        " do not meet in a common face"
    ) in problems
    code, out = run(capsys, "validate", write(tmp_path, "overlap.json", OVERLAP_MODEL))
    assert code == 2
    assert out.splitlines() == problems


def test_fan_series_validates_once(capsys, monkeypatch):
    import logzeta.cli
    import logzeta.zeta

    calls = []
    real = logzeta.zeta.validate_model

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(logzeta.zeta, "validate_model", counting)
    monkeypatch.setattr(logzeta.cli, "validate_model", counting)
    code, _ = run(capsys, "fan-series", path("orthant_model.json"))
    assert code == 0
    assert len(calls) == 1


def test_nearby(capsys):
    code, out = run(capsys, "nearby", path("single_component.json"))
    assert code == 0
    assert out.strip() == "[E]"


def test_expand(capsys):
    code, out = run(capsys, "expand", path("single_component.json"), "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["T^1: [E]*L^-1", "T^2: [E]*L^-2", "T^3: [E]*L^-3"]


def test_probe(capsys):
    code, out = run(capsys, "probe-nondegenerate", path("cusp_newton.json"), "--prime", "7")
    assert code == 0
    assert out.strip() == "pass"


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "newton-zeta", path("cusp_newton.json"))
    _, out2 = run(capsys, "newton-zeta", path("cusp_newton.json"))
    assert out1 == out2


def test_json_output(capsys):
    code, out = run(capsys, "newton-poles", path("cusp_newton.json"), "--json")
    assert code == 0
    assert json.loads(out) == {"poles": ["-1", "-5/6"]}
    code, out = run(capsys, "dl-zeta", path("single_component.json"), "--json")
    data = json.loads(out)
    assert data["terms"][0]["denominators"] == [[-1, 1]]


def test_parse_errors(capsys):
    code = main(["dl-zeta", "/nonexistent/file.json"])
    assert code == 1


def _sncd(component):
    return {"m": 1, "components": [component], "strata": [{"J": ["E"], "symbol": "E"}]}


def _fan(rays, e):
    return {"rank": 2, "cells": [{"rays": rays}], "e": [e], "a": [[0, 0]]}


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("newton-poles", {"n": 2, "support": [[2.7, 0], [0, 3]]}),
        ("newton-poles", {"n": 2, "support": [[True, 0], [0, 3]]}),
        ("dl-zeta", _sncd({"id": "E", "N": True, "nu": 1})),
        ("dl-zeta", _sncd({"id": "E", "N": 1, "nu": 1.5})),
        ("fan-series", _fan([[1, 0], [0.5, 1]], [1, 1])),
        ("fan-series", _fan([[1, 0], [0, 1]], [1, False])),
    ],
)
def test_non_integers_rejected(tmp_path, capsys, verb, doc):
    # coercing with int() would read 2.7 as 2 and true as 1, and exit 0
    code = main([verb, write(tmp_path, "input.json", doc)])
    assert code == 1
    assert "must be an integer" in capsys.readouterr().err


def _weighted(weight):
    return {"rank": 2, "cells": [{"rays": [[1, 0], [0, 1]], "weight": weight}], "e": [[1, 1]], "a": [[1, 1]]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("expand", "--degree", "2"), 5),
        (("nearby",), 5),
        (("newton-zeta",), [1, 2]),
        (("newton-zeta",), {"n": 2, "support": [[1, 0], [0, 1]], "coeffs": [1, 2]}),
        (("fan-series",), _weighted(3)),
        (("fan-series",), _weighted({"A**B": "1"})),
    ],
)
def test_wrong_json_types_rejected(tmp_path, capsys, argv, doc):
    code = main([argv[0], write(tmp_path, "input.json", doc), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_runtime_error_is_an_error_line(capsys, monkeypatch):
    def give_up(k):
        raise RuntimeError("resolution did not terminate")

    monkeypatch.setattr("logzeta.cli.resolve_complex", give_up)
    code = main(["resolve", path("orthant_model.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: resolution did not terminate\n"


def test_composite_weight_symbols_merge(tmp_path, capsys):
    both = _weighted({"B*A": "1", "A*B": "1"})
    code, out = run(capsys, "fan-series", write(tmp_path, "both.json", both))
    code, doubled = run(capsys, "fan-series", write(tmp_path, "doubled.json", _weighted({"A*B": "2"})))
    assert (code, out) == (0, doubled)
    assert "[A*B]" in out and "B*A" not in out


def test_bad_schema(tmp_path, capsys):
    p = write(tmp_path, "bad.json", {"foo": 1})
    code = main(["expand", p, "--degree", "2"])
    assert code == 1


def test_subdivide_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "subdivide", path("orthant_model.json"), "--ray", "1,1")
    assert code == 0
    sub = tmp_path / "sub.json"
    sub.write_text(out)
    m1 = parse_fan(json.load(open(path("orthant_model.json"))))
    m2 = parse_fan(json.loads(out))
    assert equal(fan_poincare(m1, 1), fan_poincare(m2, 1))
    code2, out2 = run(capsys, "fan-series", str(sub), "--m", "1")
    assert code2 == 0


def test_resolve_roundtrip(tmp_path, capsys):
    model = {
        "rank": 2,
        "cells": [{"rays": [[1, 0], [1, 2]], "weight": {"U": "L-1"}}],
        "e": [[1, 1]],
        "a": [[2, 1]],
    }
    p = write(tmp_path, "model.json", model)
    code, out = run(capsys, "resolve", p)
    assert code == 0
    m1 = parse_fan(model)
    m2 = parse_fan(json.loads(out))
    assert all(c.is_smooth() for c in m2.complex.cells)
    assert equal(fan_poincare(m1, 0), fan_poincare(m2, 0))


def test_cusp_resolution_poles_match_newton(capsys):
    # the resolution-side candidate poles collapse to the Newton-side pair
    import fractions

    from logzeta.cli import load_input, parse_sncd
    from logzeta.zeta import dl_zeta

    d = parse_sncd(load_input(path("cusp_resolution.json")))
    poles = dl_zeta(d).candidate_poles()
    assert poles == {fractions.Fraction(-1), fractions.Fraction(-5, 6)}


def test_sncd_zeta_uses_mu(capsys):
    code, out = run(capsys, "sncd-zeta", path("single_component.json"))
    assert code == 0
    assert out.strip() == "[E]*L^-1*T/(1-T)"


def test_fan_poles(capsys):
    code, out = run(capsys, "fan-poles", path("orthant_model.json"))
    assert code == 0
    assert out.strip() == "-1/2, 0"


def test_subdivide_bad_ray(capsys):
    code = main(["subdivide", path("orthant_model.json"), "--ray=-1,0"])
    assert code == 1  # outside the support
    code = main(["subdivide", path("orthant_model.json"), "--ray", "x,y"])
    assert code == 1


def test_byte_identical_across_processes():
    # output must not depend on hash randomization
    import subprocess
    import sys

    import logzeta

    # the child processes import the same logzeta as this one
    src = os.path.dirname(os.path.dirname(logzeta.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "logzeta.cli", "newton-zeta", path("cusp_newton.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
        proc2 = subprocess.run(
            [sys.executable, "-m", "logzeta.cli", "subdivide", path("orthant_model.json"), "--ray", "1,1"],
            capture_output=True,
            text=True,
            env=env,
        )
        outs.append(proc2.stdout)
    assert outs[0] == outs[2] and outs[1] == outs[3]
