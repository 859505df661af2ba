import ast
import pathlib
import sys

import logzeta

SRC = pathlib.Path(logzeta.__file__).parent


def test_no_assert_statements():
    # library invariants must still be checked under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # a name imported into a module and never read there is dead weight;
    # __init__ imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


# Unbounded caches that stay, with the reason each may grow without a bound.
UNBOUNDED_CACHES = {
    # a 512-entry cap thrashes: resolving a 1340-cell complex had not
    # finished after 45 s, since every subdivision asks for the faces of
    # every cell again; and the benchmark harness reads faces.cache_info()
    # in every worker and wraps the name faces, so it stays a module-level
    # lru_cache rather than a property of the cone
    ("cones.py", "faces"),
}


def _unbounded_caches(path):
    """(file, function) for each ``lru_cache`` or ``functools.cache`` in
    ``path`` without a finite maxsize, named by the function it decorates or
    the innermost function whose body makes it (``<module>`` outside any)."""
    tree = ast.parse(path.read_text())
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def name_of(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def unbounded(node):
        """Whether ``node``, a decorator or a callee's call, makes an
        unbounded cache; a bare ``lru_cache`` keeps 128 entries."""
        if "cache" in (name_of(node), name_of(getattr(node, "func", None))):
            return True
        if not isinstance(node, ast.Call) or name_of(node.func) != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        if not sizes:
            return False
        size = sizes[0]
        if isinstance(size, ast.Name):
            value = constants.get(size.id)
        else:
            value = getattr(size, "value", None)
        return not isinstance(value, int) or isinstance(value, bool)

    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(unbounded(d) for d in node.decorator_list):
                found.add((path.name, node.name))
            for child in node.body:
                visit(child, node.name)
            return
        if isinstance(node, ast.Call) and unbounded(node):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_caches_are_bounded():
    # a cache that grows with the work done makes memory grow with it;
    # every bound is a module constant or a literal
    found = set().union(*(_unbounded_caches(p) for p in sorted(SRC.glob("*.py"))))
    assert found == UNBOUNDED_CACHES


# Library functions that no library module reads and that perfbench/spans.py
# looks up by name to trace them: when the tracer stops naming one, it goes
# or moves to UNREAD_DEFINITIONS with a reason of its own.
TRACED_BY_NAME = {
    ("cones.py", "check_subdivision"),
    ("cones.py", "cone_intersection"),
    ("intlin.py", "inverse_rational"),
    ("intlin.py", "kernel_basis"),
    ("intlin.py", "saturation_basis"),
    ("intlin.py", "solve_integer"),
    ("intlin.py", "solve_rational"),
}

# Library functions and methods that no library module reads and that
# __all__ does not export, with the reason each may stay.
UNREAD_DEFINITIONS = TRACED_BY_NAME | {
    # acceptance criterion 7 states these monoid objects as the paper's laws
    ("monoids.py", "base_change"),
    ("monoids.py", "divisor_add"),
    ("monoids.py", "divisor_from_element"),
    ("monoids.py", "face_lattice"),
    ("monoids.py", "height1_primes"),
    ("monoids.py", "monoid_from_generators"),
    ("monoids.py", "root_index"),
    ("monoids.py", "sharpify"),
    ("monoids.py", "valuation"),
    # acceptance criterion 8 states the half-open decomposition of a cone,
    # and perfbench/spans.py traces it by name
    ("cones.py", "triangulate_half_open"),
    # public checks: the relative-interior twin of Cone.contains, a face
    # record's normal cone as a Cone, the L -> q specialization, the T -> L
    # substitution of criterion 5 and the pole set the benchmark's gate reads
    ("cones.py", "Cone.relint_contains"),
    ("newton.py", "FaceRecord.normal_cone_closure"),
    ("mring.py", "MClass.specialize"),
    ("series.py", "ZSeries.candidate_poles"),
    ("series.py", "ZSeries.subst_T_L"),
}


def _unread_definitions():
    """(file, name) for each module-level function, and each method of a
    module-level class other than a dunder, whose name no library module
    reads, as a name or an attribute, and that ``__all__`` does not export."""
    defined, read = [], set(logzeta.__all__)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (path.name, f"{node.name}.{f.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                ]
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return {(file, name) for file, name, short in defined if short not in read}


def test_library_holds_no_test_only_code():
    # a route that only the tests call is a test oracle, and an oracle kept
    # beside the code it checks is independent only by convention: it
    # belongs in tests/genutil.py
    assert _unread_definitions() == UNREAD_DEFINITIONS


def test_tracer_allow_list_names_traced_targets(bench):
    # an entry the tracer no longer names is code that nothing keeps
    targets = {
        (f"{target[0]}.py", ".".join(target[1:]))
        for group in bench[3].GROUPS.values()
        for target in group
    }
    assert TRACED_BY_NAME <= targets


def test_monoids_reads_lattices_off_one_hermite_form():
    # the monoid layer takes a basis and coordinates from one Hermite form
    # and the quotient map from span_lattice, so no solve route is imported
    # and no step that cannot fail is guarded
    tree = ast.parse((SRC / "monoids.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"solve_integer", "saturation_basis", "smith_normal_form", "rank"})
    assert all(getattr(node, "id", None) != "RuntimeError" for node in ast.walk(tree))


def test_smith_form_guards_no_step_that_cannot_fail():
    # while row or column k is not clear the block holds a nonzero, so the
    # one pivot loop always finds a pivot and intlin raises no RuntimeError
    tree = ast.parse((SRC / "intlin.py").read_text())
    assert all(getattr(node, "id", None) != "RuntimeError" for node in ast.walk(tree))


def test_each_test_starts_with_every_library_table_empty():
    # conftest empties every lru_cache of the library, a table added later too
    tables = [
        value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "logzeta"
        for value in vars(module).values()
        if callable(getattr(value, "cache_info", None))
    ]
    assert len(tables) >= 4 and all(table.cache_info().currsize == 0 for table in tables)


def _readers(name):
    """(file, function) for each place in the library that reads ``name``,
    as a name, an attribute or an import, by the innermost function around
    it (``<module>`` outside any)."""
    found = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        reads = (
            isinstance(node, ast.Name)
            and node.id == name
            or isinstance(node, ast.Attribute)
            and node.attr == name
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == name for alias in node.names)
        )
        if reads:
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "<module>")
    return found


def test_only_the_resolution_builds_box_point_vectors():
    # the cone-sum kernel pairs residues on the piece's frame; only the
    # resolution, which subdivides at a box point, needs the vectors
    assert _readers("box_points") == {("cones.py", "resolve_complex")}


def test_one_route_into_the_cone_sum_kernel():
    # the double description builds cones and the Newton face lattice; the
    # piece table takes every cone with its incidence and dimension, so it
    # runs none, and the kernel (imported, then called) is its only reader
    assert _readers("_dd") == {
        ("cones.py", "_build_cone"),
        ("cones.py", "_dd_generators"),
        ("newton.py", "_newton_faces"),
    }
    assert _readers("_relint_pieces") == {("series.py", "<module>"), ("series.py", "_relint_buckets")}


def test_one_kernel_call_per_pipeline():
    # each pipeline hands the kernel all of its cones at once, and the
    # kernel keeps the box-point budget itself, so no caller carries it
    assert _readers("_relint_buckets") == {
        ("newton.py", "<module>"),
        ("newton.py", "terms"),
        ("series.py", "cone_series"),
        ("zeta.py", "<module>"),
        ("zeta.py", "fan_poincare"),
    }


def test_newton_takes_no_rank():
    # a face's dimension comes from the face lattice's grading
    assert all(file != "newton.py" for file, _ in _readers("rank"))
