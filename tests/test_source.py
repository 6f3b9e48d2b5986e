"""Static checks on the package source."""
import ast
import re
import sys
from pathlib import Path

import pytest

import erskit

SRC = Path(erskit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # python -O strips assert statements, and a bare AssertionError escapes
    # the typed errors the CLI reports, so invariants raise CheckError
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, found


def test_one_sparse_accumulator():
    # every sparse linear combination drops a cancelled coefficient with
    # `del d[key]`; exact.acc is the one place allowed to
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(node) for top in tree.body
                   if path.name == "exact.py" and isinstance(top, ast.FunctionDef)
                   and top.name == "acc" for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Delete) and id(node) not in allowed
                  and any(isinstance(t, ast.Subscript) for t in node.targets)]
    assert not found, found


def test_one_reflection_routine():
    # unfold.aut_n is the one reflection routine: its closed form
    # `_sl2_image` is named inside it alone, the three-series product and
    # transport's own cached step are gone, and aut_n and loop_bracket stay
    # module-level functions, which perfbench/spans.py wraps by name
    gone = {"_exp_ad", "_transport_step", "_parallel"}
    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(node) for top in tree.body
                   if path.name == "unfold.py" and isinstance(top, ast.FunctionDef)
                   and top.name == "aut_n" for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.FunctionDef) else None
            if name in gone:
                found.append(f"{path.name}:{node.lineno}")
            elif name == "_sl2_image" and not isinstance(node, ast.FunctionDef):
                if id(node) in allowed:
                    inside += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
        if path.name == "unfold.py":
            tops = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
            assert {"aut_n", "loop_bracket", "_sl2_image"} <= tops
    assert inside and not found, found


def test_one_elimination():
    # exact.expansions is the one row elimination: the dense RREF and the
    # symmetric pivoting of the affine-block check are gone, and the graded
    # build reads its basis and expansions off expansions
    gone = {"rref", "_check_affine_block"}
    found, calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.FunctionDef) else None
            if name in gone:
                found.append(f"{path.name}:{node.lineno}")
        if path.name == "unfold.py":
            build = next(top for cls in tree.body
                         if isinstance(cls, ast.ClassDef) and cls.name == "GradedAlgebra"
                         for top in cls.body
                         if isinstance(top, ast.FunctionDef) and top.name == "_build_weight")
            calls = sum(isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "expansions"
                or getattr(node.func, "attr", None) == "expansions")
                for node in ast.walk(build))
    assert calls and not found, found


def test_one_bracket_recursion():
    # GradedAlgebra._br_keys is the one structure rule that walks a basis
    # monomial's build: the (letter, parent) entry basis[wt][idx] is read
    # inside it alone, and the invariant form is read off the bracket
    tree = ast.parse((SRC / "unfold.py").read_text(encoding="utf-8"))
    allowed = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "GradedAlgebra"
               for top in cls.body
               if isinstance(top, ast.FunctionDef) and top.name == "_br_keys"
               for node in ast.walk(top)}
    found, inside = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            table = node.value.value
            name = table.id if isinstance(table, ast.Name) else \
                table.attr if isinstance(table, ast.Attribute) else None
            if name == "basis":
                if id(node) in allowed:
                    inside += 1
                else:
                    found.append(f"unfold.py:{node.lineno}")
    assert inside and not found, found


def test_one_serre_exponent_table():
    # presentation._BTable derives every Serre exponent once per emit call:
    # `_x` is named inside it alone, and only the public emitters build one
    found, inside, builders = [], 0, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(node) for top in tree.body
                   if path.name == "presentation.py" and isinstance(top, ast.ClassDef)
                   and top.name == "_BTable" for node in ast.walk(top)}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "_x":
                    if id(node) in allowed:
                        inside += 1
                    else:
                        found.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "_BTable":
                    builders.add(getattr(top, "name", "<module>"))
    assert inside and not found, found
    assert builders == {"emit_sr", "emit_sr_sharp", "emit_tsr"}, sorted(builders)


def test_emitters_are_entry_points():
    # one call of emit_sr, emit_sr_sharp or emit_tsr is one emission: no
    # code in presentation.py calls a public emitter, so none nests another
    emitters = {"emit_sr", "emit_sr_sharp", "emit_tsr"}
    tree = ast.parse((SRC / "presentation.py").read_text(encoding="utf-8"))
    calls = [f"{node.func.id}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in emitters]
    assert not calls, calls


def test_src_imports_stdlib_and_click_only():
    # erskit runs on the standard library and click alone, and every
    # third-party module it imports is a declared dependency
    tomllib = pytest.importorskip("tomllib")
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [(path.name, top) for top in {m.split(".")[0] for m in modules}
                        if top not in sys.stdlib_module_names]
    bad = [f"{name}: {top}" for name, top in outside if top != "click"]
    assert not bad, bad
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["project"]["dependencies"]}
    third_party = {top for _, top in outside}
    assert third_party == declared == {"click"}, (sorted(third_party), sorted(declared))


def _named(path) -> set[str]:
    """Every identifier a Python file names: variables, attributes, imported
    names, and strings that are identifiers (attribute names looked up by
    getattr-style tables)."""
    return _named_in(ast.parse(path.read_text(encoding="utf-8")))


def _named_in(tree) -> set[str]:
    """The identifiers `_named` reads, within one syntax tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_oracle_is_independent_of_the_root_set_code():
    # the oracle confirms what generate enumerates, so it must not reach the
    # reflection kernel, the membership tables or the progressions
    tree = ast.parse((SRC / "roots.py").read_text(encoding="utf-8"))
    oracle = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "reflection_closure_oracle")
    named = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    banned = {"closure", "mirror", "EllipticRootSet", "fintable", "member",
              "fin_class", "Progression"}
    assert not named & banned, sorted(named & banned)


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(func, ast.Attribute) and func.attr == "command"
                and isinstance(func.value, ast.Name) and func.value.id == "main"):
            return True
    return False


def test_public_names_are_referenced():
    # a top-level public def or class that nothing in the package, the
    # tests, the benchmark or the README names is dead code
    sources = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    named = set().union(*(_named(path) for path in sources))
    readme = ROOT / "README.md"
    readme_text = readme.read_text(encoding="utf-8") if readme.is_file() else ""
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or _is_click_command(node):
                continue
            if node.name in named or re.search(rf"\b{node.name}\b", readme_text):
                continue
            dead.append(f"{path.name}:{node.name}")
    assert not dead, dead


# entry points that no command reaches yet, each with its caller
REACHED_OUTSIDE_CLI = {
    "twist_4z": "perfbench lattice",
    "reflection_closure_oracle": "perfbench lattice",
    "witness_words": "perfbench witness, criterion 8",
    "witness_height": "perfbench witness, criterion 8",
    "transport_images": "perfbench witness, criterion 8",
    "loop_weight_dim": "perfbench witness, criterion 8",
    "root_to_ambient": "perfbench witness, criterion 8",
}


def test_src_is_reachable_from_the_cli():
    # every top-level def or class in src is reached by name from cli.py,
    # from a click command, or from an entry of REACHED_OUTSIDE_CLI; a name
    # reached counts every name its definition uses, top-level assignments
    # included
    uses: dict[str, set] = {}
    tops = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if not _is_click_command(node):
                    tops.append(f"{path.name}:{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                uses.setdefault(name, set()).update(_named_in(node))
    reached = _named(SRC / "cli.py") | set(REACHED_OUTSIDE_CLI)
    stack = list(reached)
    while stack:
        for name in uses.get(stack.pop(), ()):
            if name not in reached:
                reached.add(name)
                stack.append(name)
    unreached = [top for top in tops if top.split(":")[1] not in reached]
    assert not unreached, unreached


def test_dense_form_only_in_ambient():
    # roots pair through integer gram rows; the dense Fraction form and the
    # ambient reflection stay in ambient.py as the reference the tests use
    dense = {"j", "reflect", "covector"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ambient.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in dense]
    assert not found, found


def _parses_ident(node) -> bool:
    """A subscript of, or a method called on, something named ident, or a
    call with the argument "E:" or "h:"."""
    def named_ident(expr):
        return (isinstance(expr, ast.Name) and expr.id == "ident"
                or isinstance(expr, ast.Attribute) and expr.attr == "ident")

    if isinstance(node, ast.Subscript):
        return named_ident(node.value)
    if not isinstance(node, ast.Call):
        return False
    args = [e for a in node.args for e in getattr(a, "elts", [a])]
    return (isinstance(node.func, ast.Attribute) and named_ident(node.func.value)
            or any(isinstance(a, ast.Constant) and a.value in ("E:", "h:")
                   for a in args))


def test_only_presentation_parses_idents():
    # RootSym.ident and RootSym.parse are the one generator-ident grammar;
    # a module that slices an ident or tests its prefix parses it again
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "presentation.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _parses_ident(node)]
    assert not found, found


def test_benchmark_tracer_targets_resolve():
    # perfbench/spans.py wraps erskit attributes by name, so a rename or a
    # deletion here breaks a traced benchmark run
    import importlib
    import importlib.util

    for mod in ("ambient", "classify", "cli", "cyclo", "presentation",
                "quantum_torus", "roots", "unfold"):
        importlib.import_module(f"erskit.{mod}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(path, attr) for _, path, attr in spans.SPANNED + spans.COUNTED]
    missing = [f"{path}.{attr}" for path, attr in targets
               if not hasattr(spans._owner(path), attr)]
    assert not missing, missing
    before = [getattr(spans._owner(path), attr) for path, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [getattr(spans._owner(path), attr) for path, attr in targets] == before


def test_cli_maps_errors_once():
    # one function turns a typed error into a result entry and exit code,
    # so every command reports the same bad input the same way; a handler
    # that re-raises (an argument's error as a click usage error) maps nothing
    typed = {"ConfigError", "DomainError", "CheckError", "ResourceError"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    mapping = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and not isinstance(node.body[-1], ast.Raise)):
                named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                if named & typed:
                    mapping.add(func.name)
    assert len(mapping) == 1, sorted(mapping)


def test_only_the_image_table_reads_g_classes_in_unfold():
    # the generator images are stated once, in _image_terms, and their
    # heights are read from it; the handy datum reads the g-class for the
    # KV constraints, the blocks and the cross entries
    tree = ast.parse((SRC / "unfold.py").read_text(encoding="utf-8"))
    readers = set()
    for top in tree.body:
        funcs = top.body if isinstance(top, ast.ClassDef) else [top]
        for func in funcs:
            name = getattr(func, "name", "<module>")
            if any(isinstance(node, ast.Attribute) and node.attr == "tag"
                   for node in ast.walk(func)):
                readers.add(name)
    assert readers == {"k_vee", "build_handy", "_ad3_pair", "_image_terms"}, sorted(readers)


def test_one_substitution_path():
    # RealizationBase evaluates trees and words for every model, through its
    # per-realization memo; a model supplies brackets, not a second path
    defined = {}
    for name in ("presentation.py", "unfold.py", "quantum_torus.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defined[top.name] = {f.name for f in top.body
                                     if isinstance(f, ast.FunctionDef)}
    assert {"evaluate", "evaluate_word"} <= defined["RealizationBase"]
    for model in ("Realization", "QRealization"):
        assert not {"evaluate", "evaluate_word"} & defined[model], model
