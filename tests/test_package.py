import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import entorder

PACKAGE = Path(entorder.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
# a Sphinx cross-reference, with its optional leading ~
ROLE = re.compile(r":(?:func|meth|data|class|attr):`~?([\w.]+)`")
# a private name in backticks, with an optional module before it
PRIVATE = re.compile(r"(?<!\w)(?:(\w+)\.)?(_[A-Za-z]\w*)")


def modules():
    return {
        path.stem: importlib.import_module(f"entorder.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def resolves(namespace, dotted):
    """Whether `dotted` names an object of `namespace`, or of the module an
    `entorder.` path names."""
    parts = dotted.split(".")
    if parts[0] == "entorder":
        namespace, parts = importlib.import_module(".".join(parts[:2])), parts[2:]
    for part in parts:
        if not hasattr(namespace, part):
            return False
        namespace = getattr(namespace, part)
    return True


def test_all_is_sorted_unique_and_resolves():
    names = entorder.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(entorder, name)]
    assert missing == []
    star = {}
    exec("from entorder import *", star)
    del star["__builtins__"]
    assert sorted(star) == names
    assert not [name for name in names if isinstance(star[name], ModuleType)]


def test_docstring_cross_references_resolve():
    seen, broken = 0, []
    for stem, module in modules().items():
        for target in ROLE.findall((PACKAGE / f"{stem}.py").read_text()):
            seen += 1
            if not resolves(module, target):
                broken.append(f"{stem}: {target}")
    assert seen > 50
    assert broken == []


def test_private_names_the_readme_cites_resolve():
    found = modules()
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    cited, broken = set(), []
    for span in re.findall(r"`([^`]+)`", text):
        for module, name in PRIVATE.findall(span):
            cited.add(name)
            owners = [found.get(module)] if module else found.values()
            if not any(hasattr(owner, name) for owner in owners if owner):
                broken.append(f"{module}.{name}" if module else name)
    assert {"_top_products", "_integer", "_pair_code"} <= cited
    assert broken == []


def test_every_imported_name_is_used():
    # __init__ is exempt: its imports are its exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    assert unused == []
