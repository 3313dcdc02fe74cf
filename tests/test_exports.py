"""Every public name in `src/chroma/` is on a path the library, a demo or the benchmark runs."""

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
