"""Every public name in `src/chroma/` is on a path the library, a demo or the benchmark runs,
and every defaulted parameter or field there is one that a caller leaves out."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chroma"

# Names that no path needs to call. gauss_alpha is the paper's Gaussian
# rectangle constant, which test_acceptance.py::test_11 checks directly.
ALLOWED_UNUSED = {"gauss_alpha"}


def _exports(module):
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return node, ast.literal_eval(node.value)
    return None, []


def test_every_exported_name_has_a_caller():
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").rglob("*.py")]
    texts = {f: f.read_text() for f in files}
    unused = []
    for module in sorted(SRC.glob("*.py")):
        node, names = _exports(module)
        if node is None:
            continue
        # the module itself, less its __all__ list; its definition of a name is one mention
        lines = texts[module].splitlines()
        own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            mentions = len(word.findall(own)) - 1
            mentions += sum(bool(word.search(t)) for f, t in texts.items() if f != module)
            if mentions < 1 and name not in ALLOWED_UNUSED:
                unused.append(f"{module.name}:{name}")
    assert not unused, f"exported but named by no src/, demos/ or bench/ code: {unused}"


# Every parameter or dataclass field in src/ that has a default, as
# (module, function or class, name).  Each one is left out by some src/,
# CLI, bench/ or demo call: both budget_s, bohr_color's params and
# independent_set's radius only by demos.  A new default is added here on
# purpose, not by habit.
DEFAULTED = {
    ("bohr", "SpectrumParams", "nu"),
    ("bohr", "SpectrumParams", "rho"),
    ("bohr", "SpectrumParams", "s_index"),
    ("bohr", "bohr_color", "params"),
    ("cayley", "chromatic_number_exact", "budget_s"),
    ("cayley", "_clique_cover", "skip"),
    ("cayley", "independence_number_exact", "budget_s"),
    ("cayley", "__init__", "vertex_transitive"),
    ("cayley", "__init__", "bracket"),
    ("cayley", "__init__", "group"),
    ("cli", "_ListOf", "nonempty"),
    ("cli", "_Object", "required"),
    ("cli", "_Object", "exactly_one"),
    ("cli", "_config_errors", "path"),
    ("cli", "main", "argv"),
    ("equations", "count_solutions_brute_all", "injective"),
    ("equations", "_conv_count_table", "dtype"),
    ("kneser", "independent_set", "radius"),
}


def _defaulted(module):
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from ((module.stem, node.name, a.arg) for a in named)
        elif isinstance(node, ast.ClassDef):
            yield from ((module.stem, node.name, st.target.id) for st in node.body
                        if isinstance(st, ast.AnnAssign) and st.value is not None)


def test_defaulted_parameters_are_pinned():
    found = {d for module in SRC.glob("*.py") for d in _defaulted(module)}
    assert found == DEFAULTED, (f"new defaults: {sorted(found - DEFAULTED)}; "
                                f"gone: {sorted(DEFAULTED - found)}")


def _unused_imports(module):
    """Names the module imports but never reads; re-exports in __all__ count as read."""
    tree = ast.parse(module.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(_exports(module)[1])
    return [f"{module.name}:{line}:{name}" for name, line in imported.items()
            if name not in read]


def test_every_import_is_used():
    unused = [u for module in sorted(SRC.glob("*.py")) for u in _unused_imports(module)]
    assert not unused, f"imported but never used: {unused}"
