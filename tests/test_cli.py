import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import logzeta.cli
from logzeta.cli import MAX_RANK, VERBS, InputError, main, parse_coeff, parse_fan, parse_newton
from logzeta.mring import LaurentPoly, MCoeff
from logzeta.series import equal, format_poles
from logzeta.zeta import InvalidModel, fan_poincare, validate_model

from genutil import count_calls, count_dd_runs

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
    assert parse_coeff(" 2 * L ^ 3 - 1 ") == parse_coeff("2*L^3-1")


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-30, 30), max_size=4),
    st.integers(0, 3),
)
def test_parse_coeff_roundtrip_random(coeffs, den_pow):
    c = MCoeff.make(LaurentPoly.from_dict(coeffs), den_pow)
    assert parse_coeff(str(c)) == c


@pytest.mark.parametrize(
    "text",
    # juxtaposed terms, a dangling "*", digits split by a space, a number
    # written against L without "*"
    ["LL", "2L3", "L 1", "L-1L", "2*", "L+2*", "1 2", "L^-1 2", "2L", "*L", "L^", "L+", "--1"],
)
def test_parse_coeff_rejects_malformed(text):
    with pytest.raises(ValueError, match="cannot parse coefficient"):
        parse_coeff(text)


def test_parse_coeff_reads_each_text_once():
    # a coefficient is a frozen value, so equal text shares one object
    assert parse_coeff("L-1") is parse_coeff("L-1")
    assert parse_coeff("L^2-2*L+1") is parse_coeff("L^2-2*L+1")
    assert parse_coeff(" L - 1 ") == parse_coeff("L-1")


@pytest.mark.parametrize("text", ["2L", "T", "L^1001", ""])
def test_refused_coefficient_text_is_never_kept(text):
    for _ in range(3):
        with pytest.raises(InputError):
            parse_coeff(text)
    assert logzeta.cli._coeff_table.cache_info().currsize == 0


def test_parsing_a_model_twice_validates_its_complex_once(monkeypatch):
    # a chain of five cones in the plane, four pairs of neighbours among them
    meets = count_calls(monkeypatch, "_meet_in_common_face")
    model = {
        "rank": 2,
        "cells": [{"rays": [[1, i], [1, i + 1]], "weight": {"U": "L-1"}} for i in range(5)],
        "e": [[1, 0]] * 5,
        "a": [[0, 0]] * 5,
    }
    first, second = parse_fan(model), parse_fan(json.loads(json.dumps(model)))
    assert validate_model(first) == validate_model(second) == []
    assert second.complex is first.complex
    assert len(meets) == math.comb(5, 2)


def test_malformed_weight_exits_1(tmp_path, capsys):
    # "L-1L" used to read as L - L = 0, which dropped the cell and exited 0
    doc = json.load(open(path("orthant_model.json")))
    doc["cells"][0]["weight"] = {"Uab": "L-1L"}
    code = main(["fan-series", write(tmp_path, "model.json", doc)])
    assert code == 1
    assert "cannot parse coefficient" in capsys.readouterr().err


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


# One non-simplicial cell, the cone over a square, flat in rank 4, with an
# edge and a ray of it weighted too: the cone-sum kernel triangulates the
# square from the incidence of its span coordinates.  No benchmark input
# holds a non-simplicial fan cell, so its printed series is pinned here.
FLAT_SQUARE_MODEL = {
    "rank": 4,
    "cells": [
        {"rays": [[1, 0, 1, 1], [0, 1, 1, 2], [-1, 0, 1, 0], [0, -1, 1, -1]], "weight": {"S": "L^2-2*L+1"}},
        {"rays": [[0, 1, 1, 2], [1, 0, 1, 1]], "weight": {"E": "L-1"}},
        {"rays": [[1, 0, 1, 1]], "weight": {"R": "1"}},
    ],
    "e": [[1, 1, 2, 0]],
    "a": [[0, 1, 0, -1]],
}


@pytest.mark.parametrize(
    "m, text",
    [
        (
            "0",
            "[R]*L*T^3/(1-L*T^3) + [S]*(L^3-2*L^2+L)*T^4/((1-T)*(1-T)*(1-L*T^3))"
            " + [E]*(L^3-L^2)*T^6/((1-L*T^3)*(1-L*T^3))"
            " + [S]*(L^4-2*L^3+L^2)*T^7/((1-T)*(1-L*T^3)*(1-L*T^3))",
        ),
        (
            "1",
            "[R]*T^3/(1-L*T^3) + [S]*(L^2-2*L+1)*T^4/((1-T)*(1-T)*(1-L*T^3))"
            " + [E]*(L^2-L)*T^6/((1-L*T^3)*(1-L*T^3))"
            " + [S]*(L^3-2*L^2+L)*T^7/((1-T)*(1-L*T^3)*(1-L*T^3))",
        ),
    ],
)
def test_flat_square_series_pinned(tmp_path, capsys, m, text):
    code, out = run(capsys, "fan-series", write(tmp_path, "square.json", FLAT_SQUARE_MODEL), "--m", m)
    assert (code, out) == (0, text + "\n")


@pytest.mark.parametrize(
    "e, diagnostics",
    [
        (
            [0, 1],
            [
                "cell Cone(rank 2, rays [(-1, 0), (1, 0)]) lies in the generic part (e = 0) but is not smooth",
                "horizontal-divisor rule: ray (-1, 0) has e-value 0 but a-value 0 (expected 1)",
                "horizontal-divisor rule: ray (1, 0) has e-value 0 but a-value 0 (expected 1)",
            ],
        ),
        (
            [0, 0],
            [
                "cell Cone(rank 2, rays [(-1, 0), (0, 1), (1, 0)]) lies in the generic part (e = 0) but is not smooth",
                "cell Cone(rank 2, rays [(-1, 0), (1, 0)]) lies in the generic part (e = 0) but is not smooth",
            ],
        ),
    ],
)
def test_cell_with_a_line_exits_2(tmp_path, capsys, e, diagnostics):
    # the cone-sum kernel takes pointed cones only, and validation sees to
    # it: e >= 0 on v and -v forces e(v) = 0, which the horizontal-divisor
    # rule refuses in a contributing cell, and the generic part's
    # smoothness in any other
    model = {"rank": 2, "cells": [{"rays": [[1, 0], [-1, 0], [0, 1]], "weight": {"H": "1"}}], "e": [e], "a": [[0, 0]]}
    code, out = run(capsys, "fan-series", write(tmp_path, "line.json", model))
    assert (code, out.splitlines()) == (2, diagnostics)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("expand", path("single_component.json")), "the following arguments are required: --degree"),
        (("nosuchverb", "x"), "argument verb: invalid choice: 'nosuchverb'"),
        (("expand", path("single_component.json"), "--degree", "x"), "argument --degree: invalid int value: 'x'"),
        ((), "the following arguments are required: verb"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 means that validation diagnostics were printed
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("usage: logzeta")
    assert f"error: {message}" in captured.err


def test_help_exits_0(capsys):
    code, out = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: logzeta")


# The help of the verbs whose output --json does not change, at 80 columns.
JSON_HELP = {
    "subdivide": """usage: logzeta subdivide [-h] [--json] --ray RAY input

positional arguments:
  input       input JSON file

options:
  -h, --help  show this help message and exit
  --json      no effect: the model is printed as JSON either way
  --ray RAY   subdivision ray, comma separated
""",
    "resolve": """usage: logzeta resolve [-h] [--json] input

positional arguments:
  input       input JSON file

options:
  -h, --help  show this help message and exit
  --json      no effect: the model is printed as JSON either way
""",
    "validate": """usage: logzeta validate [-h] [--json] input

positional arguments:
  input       input JSON file

options:
  -h, --help  show this help message and exit
  --json      no effect: the verdict is printed as text either way
""",
}


@pytest.mark.parametrize("verb", sorted(JSON_HELP))
def test_json_help_says_what_the_flag_does(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, verb, "--help") == (0, JSON_HELP[verb])


def test_json_help_of_the_other_verbs():
    helps = {name: verb.json for name, verb in VERBS.items() if name not in JSON_HELP}
    assert set(helps.values()) == {"emit JSON instead of text"}


def test_ray_with_a_negative_first_coordinate(tmp_path, capsys):
    model = {"rank": 2, "cells": [{"rays": [[-1, 0], [0, 1]], "weight": {"U": "1"}}], "e": [[-1, 1]], "a": [[0, 0]]}
    name = write(tmp_path, "left.json", model)
    spaced = run(capsys, "subdivide", name, "--ray", "-1,1")
    assert spaced == run(capsys, "subdivide", name, "--ray=-1,1")
    assert spaced[0] == 0 and [-1, 1] in [r for c in json.loads(spaced[1])["cells"] for r in c["rays"]]


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


def test_negative_expansion_degree_exits_1(capsys):
    for json_flag in ((), ("--json",)):
        code = main(["expand", path("single_component.json"), "--degree", "-1", *json_flag])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: expansion degree must be nonnegative, not -1\n"
    assert run(capsys, "expand", path("single_component.json"), "--degree", "0") == (0, "")


def test_expand_passes_m_to_the_fan_series(capsys):
    # expand reads --m as fan-series does; at m = 1 every coefficient is
    # L^-1 times the one at m = 0 on this model, so a dropped --m shows
    code, out = run(capsys, "expand", path("orthant_model.json"), "--degree", "2", "--m", "1")
    model = parse_fan(json.load(open(path("orthant_model.json"))))
    expected = [f"T^{d}: {c}" for d, c in enumerate(fan_poincare(model, 1).expand(2), start=1)]
    assert (code, out.splitlines()) == (0, expected)
    assert fan_poincare(model, 1).expand(2) != fan_poincare(model, 0).expand(2)


def test_probe(capsys):
    code, out = run(capsys, "probe-nondegenerate", path("cusp_newton.json"), "--prime", "7")
    assert code == 0
    assert out.strip() == "pass"


def test_probe_large_prime_refused_fast():
    # (p-1)^n torus points per face: a large prime is refused before any search
    import subprocess
    import sys

    import logzeta

    src = os.path.dirname(os.path.dirname(logzeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "logzeta.cli", "probe-nondegenerate", path("cusp_newton.json"), "--prime", "1000000007"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: probe would visit") and "Traceback" not in proc.stderr


def test_newton_exponent_notation_refused_fast(tmp_path):
    # Fraction would expand 10**999999999 digit by digit; the child runs
    # under a timeout so that a regression fails instead of hanging
    doc = {"n": 2, "support": [[2, 0], [0, 3]], "coeffs": {"(2,0)": "1e999999999", "(0,3)": "1"}}
    proc = _run_in_child("newton-zeta", write(tmp_path, "input.json", doc), timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: bad newton input: coefficient '1e999999999' is in exponent notation\n"


@pytest.mark.parametrize(
    "text",
    ["1", "-3", "+2", " 7 ", "3/4", "-6/8", "1.5", ".5", "2.", "1_000", "0/5", 2, -1.25, 1e-07, 1e20],
)
def test_newton_coefficient_forms_keep_their_value(text):
    # every form other than exponent notation in a string reads as Fraction reads its text
    assert parse_newton({"n": 1, "support": [[1]], "coeffs": {"(1)": text}}).coeffs == {
        (1,): Fraction(str(text))
    }


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


@pytest.mark.parametrize("verb", ["validate", "fan-series", "fan-poles"])
@pytest.mark.parametrize("key, vector", [("e", [1]), ("e", [1, 2, 3]), ("a", [0, 1, 0])])
def test_wrong_length_e_or_a_exits_1(tmp_path, capsys, verb, key, vector):
    # a pairing that stopped at the shorter vector would read [1, 2, 3] as
    # [1, 2] on this rank-2 model and exit 0
    doc = json.load(open(path("orthant_model.json")))
    doc[key] = [vector]
    code = main([verb, write(tmp_path, "model.json", doc)])
    captured = capsys.readouterr()
    message = f"bad fan-model input: {key} vector {vector} has length {len(vector)}, not the rank 2"
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def _components(*comps, strata=(["E"],)):
    return {"m": 1, "components": list(comps), "strata": [{"J": j, "symbol": "E"} for j in strata]}


E_NU = {"id": "E", "N": 1, "nu": 1}
E_MU = {"id": "E", "N": 1, "mu": 0}


@pytest.mark.parametrize(
    "verb, doc, message",
    [
        ("dl-zeta", _components(E_NU, E_NU), "bad sncd input: duplicate component ids"),
        ("dl-zeta", _components(E_NU, strata=([],)), "bad sncd input: empty stratum"),
        ("dl-zeta", _components(E_NU, strata=(["E"], ["E"])), "bad sncd input: duplicate stratum ['E']"),
        (
            "dl-zeta",
            _components({"id": "E", "N": 0, "nu": 1}),
            "bad sncd input: component E: multiplicity must be positive",
        ),
        ("dl-zeta", _components(E_MU), "component E carries no nu"),
        ("nearby", _components(E_MU), "component E carries no nu"),
        ("sncd-zeta", _components(E_NU), "component E carries no mu"),
        ("newton-zeta", {"n": 1, "support": [[1]], "coeffs": {"(2)": "1"}}, "coefficient for non-support point (2,)"),
        ("probe-nondegenerate", {"n": 1, "support": [[1]]}, "probe needs coefficients"),
        (
            "probe-nondegenerate",
            {"n": 2, "support": [[2, 0], [0, 3]], "coeffs": {"(2,0)": "1"}},
            "probe needs a coefficient for every support point",
        ),
        (
            "newton-zeta",
            {"n": 2, "support": [[2, 0], [0, 3]], "coeffs": {"(2,0)": "1/0", "(0,3)": "1"}},
            "bad newton input: coefficient '1/0' has a zero denominator",
        ),
        (
            "newton-zeta",
            {"n": 2, "support": [[2, 0], [0, 3]], "coeffs": {"(a,0)": "1"}},
            "bad newton input: coefficient key '(a,0)' is not a point of integers",
        ),
        # a coefficient's cost grows with its exponents: L^1000000 took 179 MB
        (
            "validate",
            _weighted({"A": "(L^1000000-1)/(L-1)"}),
            "coefficient '(L^1000000-1)/(L-1)' has an exponent over 1000",
        ),
        ("validate", _weighted({"A": "1/(L-1)^1001"}), "coefficient '1/(L-1)^1001' has an exponent over 1000"),
        ("fan-series", _weighted({"A": "L^-1001"}), "coefficient 'L^-1001' has an exponent over 1000"),
        # a negative rank is no lattice
        (
            "validate",
            {"rank": -1, "cells": [{"rays": []}], "e": [[]], "a": [[]]},
            "bad fan-model input: rank must be nonnegative, got -1",
        ),
        # every e and a vector pairs with the rays, so it has the rank's length
        (
            "validate",
            {"rank": 2, "cells": [{"rays": [[1, 0], [0, 1]]}], "e": [[1, 1, 1]], "a": [[0, 0]]},
            "bad fan-model input: e vector [1, 1, 1] has length 3, not the rank 2",
        ),
        (
            "fan-series",
            {"rank": 2, "cells": [{"rays": [[1, 0], [0, 1]]}], "e": [[1, 1]], "a": [[0]]},
            "bad fan-model input: a vector [0] has length 1, not the rank 2",
        ),
        # a missing or mistyped field is named, with its place
        (
            "validate",
            {"cells": [{"rays": [[1, 0]]}], "e": [[1, 1]], "a": [[0, 0]]},
            "bad fan-model input: the input has no field 'rank'",
        ),
        (
            "fan-series",
            {"rank": 2, "cells": [{"rays": [[1, 0]]}], "a": [[0, 0]]},
            "bad fan-model input: the input has no field 'e'",
        ),
        (
            "fan-series",
            {"rank": 2, "cells": [{"rays": [[1, 0]]}, {"ray": [[0, 1]]}], "e": [[1, 1]], "a": [[0, 0]]},
            "bad fan-model input: cells[1] has no field 'rays'",
        ),
        (
            "validate",
            {"rank": 2, "cells": "abc", "e": [], "a": []},
            "bad fan-model input: cells must be a JSON array, got str",
        ),
        (
            "fan-series",
            {"rank": 2, "cells": [{"rays": [[1, 0], 1]}], "e": [[1, 1]], "a": [[0, 0]]},
            "bad fan-model input: cells[0].rays[1] must be a JSON array, got int",
        ),
        ("newton-zeta", {"n": 2, "supports": [[1, 0]]}, "bad newton input: the input has no field 'support'"),
        ("newton-poles", {"n": 2, "support": 7}, "bad newton input: support must be a JSON array, got int"),
        ("dl-zeta", _components({"id": "E", "nu": 1}), "bad sncd input: components[0] has no field 'N'"),
        (
            "dl-zeta",
            {"m": 1, "components": [E_NU], "strata": [{"J": ["E"]}]},
            "bad sncd input: strata[0] has no field 'symbol'",
        ),
        # a J listing an id twice was read as the stratum {E}
        ("sncd-zeta", _components(E_MU, strata=(["E", "E"],)), "bad sncd input: strata[0].J lists 'E' twice"),
        # a class symbol is checked where the sncd data is read, as a fan
        # model's weight symbol is
        (
            "sncd-zeta",
            {"m": 1, "components": [E_MU], "strata": [{"J": ["E"], "symbol": ""}]},
            "bad sncd input: empty class symbol",
        ),
        (
            "sncd-zeta",
            {"m": 1, "components": [E_MU], "strata": [{"J": ["E"], "symbol": "A*1"}]},
            "bad sncd input: bad class symbol 'A*1'",
        ),
    ],
)
def test_trust_boundary_rejections_exit_1(tmp_path, capsys, verb, doc, message):
    extra = ("--prime", "7") if verb == "probe-nondegenerate" else ()
    code = main([verb, write(tmp_path, "input.json", doc), *extra])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_validate_rejects_a_file_that_is_not_json(tmp_path, capsys):
    p = tmp_path / "model.json"
    p.write_text("{not json")
    code = main(["validate", str(p)])
    captured = capsys.readouterr()
    expected = f"error: {p} is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    assert (code, captured.out, captured.err) == (1, "", expected)


def test_validate_reports_a_disagreeing_a_at_a_shared_ray(tmp_path, capsys):
    doc = {
        "rank": 2,
        "cells": [{"rays": [[1, 0], [1, 1]]}, {"rays": [[1, 1], [0, 1]]}],
        "e": [[1, 1], [1, 1]],
        "a": [[0, 0], [1, 0]],
    }
    code = main(["validate", write(tmp_path, "model.json", doc)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "inconsistent a across shared face at ray (1, 1)\n", "")


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
    assert all(c.is_smooth for c in m2.complex.cells)
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
    # a ray of another length, and the zero ray, are refused by name at the
    # trust boundary, before any cone is built
    capsys.readouterr()
    for ray, why in (
        ("1,1,1", "a ray of the rank-2 model has 2 coordinates, not 3"),
        ("0,0", "a ray of the rank-2 model must be nonzero"),
    ):
        assert main(["subdivide", path("orthant_model.json"), "--ray", ray]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: bad ray '{ray}': {why}\n")


def _run_in_child(*argv, flags=(), timeout=None, max_memory_mb=None, **env):
    """The command line in a child interpreter that imports the same logzeta
    as this one, its address space capped at ``max_memory_mb`` when given."""
    import resource
    import subprocess
    import sys

    import logzeta

    def cap():
        limit = max_memory_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(logzeta.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "logzeta.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
        timeout=timeout,
        preexec_fn=None if max_memory_mb is None else cap,
    )


@pytest.mark.parametrize(
    "degree, message",
    [
        ("10000", "expansion needs a table of more than 500000 entries; use a smaller degree"),
        ("2000000", "expansion degree 2000000 is over 500000"),
    ],
)
def test_expand_past_its_bound_refused_fast(degree, message):
    # the cusp's table grows with the square of the degree, and T^10000 took
    # 3.1 GB; the child runs under a timeout and a memory cap so that a
    # regression fails instead of hanging or exhausting memory
    proc = _run_in_child("expand", path("cusp_newton.json"), "--degree", degree, timeout=60, max_memory_mb=1024)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_resolve_past_its_bound_refused_fast(tmp_path):
    # the cell [[1,0],[1,N]] takes N - 1 subdivisions over about N^2/2 box
    # points; at N = 1000 it took 18.8 s and printed 117 KB before the bound
    model = {"rank": 2, "cells": [{"rays": [[1, 0], [1, 1000]], "weight": {"U": "1"}}], "e": [[1, 0]], "a": [[0, 0]]}
    proc = _run_in_child("resolve", write(tmp_path, "two_rays.json", model), timeout=60, max_memory_mb=1024)
    message = "resolution needs more than 5000 box points (at a cell of index 995); the model is too singular"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "verb, doc, count",
    [
        # the vertex (0, 1) has the normal cone [(1, 0), (1, 10^7)] of index 10^7;
        # at exponent 100,000 newton-zeta took 2.6 s, 196 MB and printed 14 MB
        ("newton-zeta", {"n": 2, "support": [[10_000_000, 0], [0, 1]]}, 10_000_000),
        (
            "fan-series",
            {
                "rank": 2,
                "cells": [{"rays": [[1, 0], [1, 200_000]], "weight": {"U": "1"}}],
                "e": [[1, 0]],
                "a": [[0, 0]],
            },
            200_000,
        ),
    ],
)
def test_cone_sum_past_its_bound_refused_fast(tmp_path, verb, doc, count):
    proc = _run_in_child(verb, write(tmp_path, "input.json", doc), timeout=60, max_memory_mb=1024)
    message = f"cone sum needs {count} box points, more than 50000; the cone is too singular"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


STRIPES = 30  # cells of 40,000 box points each, side by side


@pytest.mark.parametrize(
    "verb, doc, count",
    [
        # each cell is under the bound, but one fan_poincare call sums them
        # all; at 30 cells fan-series ran 4.2 s before the bound was per call
        (
            "fan-series",
            {
                "rank": 2,
                "cells": [
                    {"rays": [[1, 40_000 * k], [1, 40_000 * (k + 1)]], "weight": {"U": "1"}}
                    for k in range(STRIPES)
                ],
                "e": [[1, 0]] * STRIPES,
                "a": [[0, 0]] * STRIPES,
            },
            80_000,
        ),
        # the vertices (30000, 1) and (0, 2) have normal cones of index
        # 30,000 each; newton-zeta took 2.7 s, 116 MB and printed 9.1 MB
        ("newton-zeta", {"n": 2, "support": [[90_000, 0], [30_000, 1], [0, 2]]}, 60_000),
    ],
)
def test_cone_sum_bound_is_per_pipeline_call(tmp_path, verb, doc, count):
    proc = _run_in_child(verb, write(tmp_path, "input.json", doc), timeout=60, max_memory_mb=1024)
    message = f"cone sum needs {count} box points, more than 50000; the cone is too singular"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_wide_exact_division_refused_fast(tmp_path):
    # the weights cancel at T^1 to (1 - L^-A)/(L-1), whose quotient holds A
    # terms; at A = 10^9 expand ended in a MemoryError under a 2 GB cap
    A = 10**9
    model = {
        "rank": 2,
        "cells": [
            {"rays": [[1, 0], [0, 1]]},
            {"rays": [[1, 0]], "weight": {"S": "1/(L-1)"}},
            {"rays": [[0, 1]], "weight": {"S": "-1/(L-1)"}},
        ],
        "e": [[1, 1]],
        "a": [[0, A]],
    }
    proc = _run_in_child(
        "expand", write(tmp_path, "input.json", model), "--degree", "1", timeout=60, max_memory_mb=1024
    )
    message = f"coefficient numerator spans {A} powers of L, more than 10000; its quotient by (L-1) is too long"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def random_points_of_n6(count: int = 40) -> list[list[int]]:
    """``count`` distinct nonzero points of N^6 with coordinates 0-4."""
    rng, points = random.Random(7), set()
    while len(points) < count:
        w = tuple(rng.randint(0, 4) for _ in range(6))
        if any(w):
            points.add(w)
    return [list(w) for w in sorted(points)]


def near_sphere_points(count: int) -> list[list[int]]:
    """``count`` distinct points ``round(30 - 30 v/|v|)`` of N^6, ``v`` a
    vector of absolute Gaussians: nearly all of them are vertices of their
    Newton polyhedron, which has many faces."""
    rng, points = random.Random(3), set()
    while len(points) < count:
        v = [abs(rng.gauss(0, 1)) for _ in range(6)]
        norm = math.sqrt(sum(x * x for x in v))
        w = tuple(round(30 - 30 * x / norm) for x in v)
        if any(w):
            points.add(w)
    return [list(w) for w in sorted(points)]


def test_forty_points_of_n6_finish_fast(tmp_path):
    # a lifted cone of 46 generators in rank 7 with 19 rays and 125 facets;
    # its double description took 34 s before the rank filter and the sorted
    # insertion order, and newton-poles now takes 0.3 s
    doc = {"n": 6, "support": random_points_of_n6()}
    proc = _run_in_child("newton-poles", write(tmp_path, "input.json", doc), timeout=60, max_memory_mb=1024)
    assert (proc.returncode, proc.stderr, len(proc.stdout)) == (0, "", 510)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == "8f8d804ccf792418"


def test_convex_curve_of_a_thousand_points_finishes_fast(tmp_path):
    # the plane support (i, (k-i)(k-i+1)/2), i = 0..k: every point is a
    # vertex, and the edge from i = k-j to k-j+1 has the normal (j, 1), with
    # sigma j+1 and minimum j(k-j) + j(j+1)/2.  newton-poles took 2.4-2.9 s
    # of wall time while the face table worked the lifted cone's incidence
    # out three times, 0.7-0.9 s reading the double description's own, and
    # 0.6-0.8 s also reading each face's covers off it (2-vCPU Xeon, Python 3.11)
    k = 1000
    doc = {"n": 2, "support": [[i, (k - i) * (k - i + 1) // 2] for i in range(k + 1)]}
    proc = _run_in_child("newton-poles", write(tmp_path, "input.json", doc), timeout=10, max_memory_mb=1024)
    assert (proc.returncode, proc.stderr) == (0, "")
    want = {Fraction(-1)} | {Fraction(-(j + 1), j * (k - j) + j * (j + 1) // 2) for j in range(1, k + 1)}
    assert proc.stdout == format_poles(frozenset(want)) + "\n"


@pytest.mark.parametrize(
    "count, message",
    [
        # 15,226 faces over 1,609 facets; newton-poles took 6.6 s before the bound
        (40, "cone has more than 10000 faces; the input is too large"),
        # 15,526,984 ray pairs, 4 s of double description, and 37,348 faces
        (80, "double description weighs more than 5000000 ray pairs; the input is too large"),
    ],
)
def test_many_faces_refused_fast(tmp_path, count, message):
    doc = {"n": 6, "support": near_sphere_points(count)}
    proc = _run_in_child("newton-poles", write(tmp_path, "input.json", doc), timeout=60, max_memory_mb=1024)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "verb, doc, message",
    [
        # 72 KB; one cell of one ray ended in a MemoryError after 26-36 s under a 2 GB cap
        (
            "fan-series",
            {"rank": 8000, "cells": [{"rays": [[1] + [0] * 7999]}], "e": [[1] + [0] * 7999], "a": [[0] * 8000]},
            "bad fan-model input: rank 8000 is over 64",
        ),
        # 1.2 KB; the face bound refused it after 16-22 s
        ("newton-poles", {"n": 400, "support": [[2] + [0] * 399]}, "bad newton input: n 400 is over 64"),
    ],
)
def test_oversized_rank_refused_fast(tmp_path, verb, doc, message):
    proc = _run_in_child(verb, write(tmp_path, "input.json", doc), timeout=10, max_memory_mb=1024)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_rank_bound_admits_its_own_value():
    def fan(n):
        one = [1] + [0] * (n - 1)
        return {"rank": n, "cells": [{"rays": [one]}], "e": [one], "a": [[0] * n]}

    def newton(n):
        return {"n": n, "support": [[2] + [0] * (n - 1)]}

    assert parse_fan(fan(MAX_RANK)).complex.ambient_rank == MAX_RANK
    assert parse_newton(newton(MAX_RANK)).n == MAX_RANK
    for parse, doc in ((parse_fan, fan), (parse_newton, newton)):
        with pytest.raises(InputError, match=f"{MAX_RANK + 1} is over {MAX_RANK}"):
            parse(doc(MAX_RANK + 1))


def test_byte_identical_across_processes():
    # output must not depend on hash randomization
    outs = []
    for seed in ("0", "424242"):
        proc = _run_in_child("newton-zeta", path("cusp_newton.json"), PYTHONHASHSEED=seed)
        assert proc.returncode == 0
        outs.append(proc.stdout)
        proc2 = _run_in_child("subdivide", path("orthant_model.json"), "--ray", "1,1", PYTHONHASHSEED=seed)
        outs.append(proc2.stdout)
    assert outs[0] == outs[2] and outs[1] == outs[3]


# ---------------------------------------------------------------------------
# Pinned output: the sha256 of stdout and the exit code of every verb on every
# sample input, as text and as JSON.  A change that moves any of them changes
# printed output, which must stay byte-identical.

PIN_ARGS = {
    "expand": ("--degree", "4"),
    "subdivide": ("--ray", "1,1"),
    "probe-nondegenerate": ("--prime", "7"),
}
# every verb of the table, so a verb without pinned output fails
PIN_VERBS = list(VERBS)
# "verb file [--json]": (exit code, sha256 of stdout)
PINNED = {
    "newton-zeta bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta cusp_newton.json": (0, "c18a48208bf5a8d87a727d3ccf1469e706bfe46f504bc49303f94dd7cd954afd"),
    "newton-zeta cusp_newton.json --json": (0, "594f483a55e5b8907c379022d9120147fc85fd812770968b5004b731a6bfd56f"),
    "newton-zeta cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local cusp_newton.json": (0, "275b87933b8d23cb2e03dd1fa0316d2a7932caba022a3a7402671de31dabb867"),
    "newton-zeta-local cusp_newton.json --json": (0, "db81af384debb487a738e35a4012326fe35f967909bcf07425401e2e67b99d20"),
    "newton-zeta-local cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-zeta-local single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles cusp_newton.json": (0, "40190b2abbd55de9ca7dfffec2afb738bc7e451ab362c1aa72725ce01502f021"),
    "newton-poles cusp_newton.json --json": (0, "4414604eefa087f80315f400855318cdbabde504ff76f89408a92b19b5c390de"),
    "newton-poles cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "newton-poles single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta cusp_resolution.json": (0, "bedc6fac33d40b74719b12939949bf67c5aef5c8ffd1920619b30987b41c700b"),
    "sncd-zeta cusp_resolution.json --json": (0, "d1d3d8844359e7ed25381a309644193c42b89d6394d3486a96f7ca279e572891"),
    "sncd-zeta orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sncd-zeta single_component.json": (0, "4a9e0a39110353f789f863a32c00a74cc3a4c78d46f47a00c94176a920f9670c"),
    "sncd-zeta single_component.json --json": (0, "1e2e8270725329a4cdeaa781a6544a0913e0657861158545dbe1f511973b1b71"),
    "dl-zeta bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta cusp_resolution.json": (0, "d73b02fe45023ea5151f07cce90891488e25b2db292c8f77733abd1997b04a36"),
    "dl-zeta cusp_resolution.json --json": (0, "974da7692facd00493e067a2f5c71221640d677858cdb94ef473ebdf94c6080b"),
    "dl-zeta orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dl-zeta single_component.json": (0, "267f4447d02f9edbd93e84dfa1cd13904ce2f73c212a40450931d226ee4d130a"),
    "dl-zeta single_component.json --json": (0, "7b609e6b573274f306a43e2080ff598eebda923ad1a6798e7e8cf2887f902c3c"),
    "fan-series bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "fan-series bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "fan-series cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-series cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-series cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-series cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-series orthant_model.json": (0, "386dcf68e276f3ed082aa30d66fb53af8e8c698a0382d33496fce5a92056dfb7"),
    "fan-series orthant_model.json --json": (0, "b0fd815beb7d36451ae95947b61cda8c9a2fe7baa0b8a7554585f15b9a56fd3c"),
    "fan-series single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-series single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "fan-poles bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "fan-poles cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles orthant_model.json": (0, "682775742284ad438f7939a09e6955068bdd3c1e44b0b40251d91bc5211572ca"),
    "fan-poles orthant_model.json --json": (0, "674e16016e1a0c79d57c908060cda3ba4a02f3f6b680314ed41e7af338c0381f"),
    "fan-poles single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fan-poles single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby cusp_resolution.json": (0, "9176c0dfc7b3b260692a12a08451471e9554475c6bf6e4062a3072be3b12d8de"),
    "nearby cusp_resolution.json --json": (0, "988af2bcec82ad12343312fdb5eee70c93353d205450cd0a4eb423c65ed8cfcc"),
    "nearby orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nearby single_component.json": (0, "41cddbe80663ef76c5ac6672f39c61c4ca562a89e2a53e1e190c0df3b8f289b0"),
    "nearby single_component.json --json": (0, "52e9a0f00ce01502c834a50a95b971b0b19d0e651155f7efc5ccce8292def00b"),
    "expand bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "expand bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "expand cusp_newton.json": (0, "f4fb9795220652397fa73e3eb1f0c35c71e145bfc2a60be2367a3a4b808a5eec"),
    "expand cusp_newton.json --json": (0, "45f2fb552518fca58b7da9c252627f1870df0d156c7b60f937027cfe3bb41654"),
    "expand cusp_resolution.json": (0, "f41d14a452e28620ca367e926c91eff5a48a5bf15568f8464d70212c6668ce05"),
    "expand cusp_resolution.json --json": (0, "5caa66da2e118949729adbded18fe1a6dcbe141ba932e61c7dc9e0b48b8a8d67"),
    "expand orthant_model.json": (0, "eda1b9bdba52f9c03070b42cbc380f2c4099fd6d8e3c56a55368e505f05c88fc"),
    "expand orthant_model.json --json": (0, "9dc9dd4f58766802cf0b3509d9bb59118e8f6fae8264c50d92f3d37319e84a15"),
    "expand single_component.json": (0, "4e96357400250446adc401132c3b2341d21acbdc4ca0cc3cd977848cccba5afd"),
    "expand single_component.json --json": (0, "0ed8efb4c04eb779d385d669affe74584ec3bdd0351535ab0e34f7437010def6"),
    "subdivide bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "subdivide bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "subdivide cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide orthant_model.json": (0, "f6111bdfcfce828127a81923b01a90094039878716c81ceaf9de8a80ebebac23"),
    "subdivide orthant_model.json --json": (0, "f6111bdfcfce828127a81923b01a90094039878716c81ceaf9de8a80ebebac23"),
    "subdivide single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "subdivide single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "resolve bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "resolve cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve orthant_model.json": (0, "97907f7b981c3b589d713b8370a914d982043238af3c528ab50e3c73ad8e8ebb"),
    "resolve orthant_model.json --json": (0, "97907f7b981c3b589d713b8370a914d982043238af3c528ab50e3c73ad8e8ebb"),
    "resolve single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "resolve single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate bad_model.json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "validate bad_model.json --json": (2, "6d55ae8550518f86f64a47cab97dd8a7dcf2dc21237df7a960a1ef2248cd1dae"),
    "validate cusp_newton.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate cusp_newton.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate orthant_model.json": (0, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    "validate orthant_model.json --json": (0, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    "validate single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "validate single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate bad_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate bad_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate cusp_newton.json": (0, "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2"),
    "probe-nondegenerate cusp_newton.json --json": (0, "df8b5ecbe4574e325bb9578a527b3bcefb4f369e5e1da45a2d20d6004c8d05f2"),
    "probe-nondegenerate cusp_resolution.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate cusp_resolution.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate orthant_model.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate orthant_model.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate single_component.json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "probe-nondegenerate single_component.json --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_pinned_output_names_every_verb():
    # a verb dropped from the table leaves its pins behind, and fails here
    assert sorted({key.split()[0] for key in PINNED}) == sorted(PIN_VERBS)


@pytest.mark.parametrize("verb", PIN_VERBS)
def test_cli_outputs_pinned(capsys, verb):
    seen = {}
    for name in sorted(os.listdir(DATA)):
        for fmt in ((), ("--json",)):
            code, out = run(capsys, verb, path(name), *PIN_ARGS.get(verb, ()), *fmt)
            seen[" ".join([verb, name, *fmt])] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == {key: pin for key, pin in PINNED.items() if key.split()[0] == verb}


# ---------------------------------------------------------------------------
# Duplicate cells, the double-description budget, `python -O`, and mutated
# sample inputs.


def test_cell_listed_twice_rejected(tmp_path, capsys):
    # the same canonical cone, from a redundant ray list the second time
    model = {
        "rank": 2,
        "cells": [
            {"rays": [[1, 0], [0, 1]], "weight": {"U": "L-1"}},
            {"rays": [[0, 1], [1, 0], [1, 1]], "weight": {"V": "L-1"}},
        ],
        "e": [[1, 2], [5, 5]],
        "a": [[0, 1], [0, 0]],
    }
    code = main(["fan-series", write(tmp_path, "twice.json", model)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: cell Cone(rank 2, rays [(0, 1), (1, 0)]) listed twice\n"


def test_parsing_a_simplicial_model_runs_no_dd(monkeypatch):
    # every cell and face of the orthant model is simplicial: each is read
    # off one elimination of its rays
    doc = json.load(open(path("orthant_model.json")))
    runs = count_dd_runs(monkeypatch)
    model = parse_fan(doc)
    assert runs == [] and validate_model(model) == []


def test_fan_poincare_of_a_validated_model_runs_no_dd(monkeypatch):
    model = parse_fan(json.load(open(path("orthant_model.json"))))
    assert validate_model(model) == []
    runs = count_dd_runs(monkeypatch)
    fan_poincare(model, 1)
    assert runs == []


@pytest.mark.parametrize(
    "argv", [("newton-zeta", "cusp_newton.json"), ("resolve", "orthant_model.json")]
)
def test_same_output_under_python_O(capsys, argv):
    # library invariants are raised errors, never `assert`, so -O changes nothing
    verb, name = argv
    proc = _run_in_child(verb, path(name), flags=("-O",))
    assert (proc.returncode, proc.stdout) == run(capsys, verb, path(name))


def _nodes(doc, at=()):
    """The path of every node of a JSON document, the root first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, at + (key,))


def _mutated(doc, at, how, value):
    """A copy of ``doc`` with the node at ``at`` replaced by ``value``,
    deleted, or (in a list) listed twice; the root can only be replaced."""
    doc = json.loads(json.dumps(doc))
    if not at:
        return value
    *up, key = at
    parent = doc
    for k in up:
        parent = parent[k]
    if how == "replace":
        parent[key] = value
    elif how == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


SAMPLES = {name: json.load(open(path(name))) for name in sorted(os.listdir(DATA))}
# small integers only: a large coordinate makes a cell of large index, whose
# box enumeration is unbounded work (ROADMAP item 6), not a contract failure
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from([2.5, "", "x", "L-1", "(1,0)"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rays", "J", "id"]), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SAMPLES)),
    st.sampled_from(PIN_VERBS),
    st.integers(0, 10**6),
    st.sampled_from(["replace", "delete", "repeat"]),
    JSON_VALUES,
    st.booleans(),
)
def test_mutated_samples_keep_the_exit_contract(tmp_path_factory, name, verb, node, how, value, as_json):
    doc = SAMPLES[name]
    paths = list(_nodes(doc))
    mutated = _mutated(doc, paths[node % len(paths)], how, value)
    p = tmp_path_factory.mktemp("mutated") / name
    p.write_text(json.dumps(mutated))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([verb, str(p), *PIN_ARGS.get(verb, ()), *(("--json",) if as_json else ())])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
