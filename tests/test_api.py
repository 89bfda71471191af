"""The benchmark under bench/ is kept frozen and reaches into the package by
name (`bl.<name>` for `import banditlab as bl`, `catalog.<name>`, and
`from banditlab... import <name>`).  Every such name must still exist, so that
deleting one fails here rather than in the middle of a benchmark run.  The
other way round, every name the package exports must have a reader, and every
name a module imports must be read in that module, so that code nothing needs
does not stay in the package."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from banditlab import guessing_game, make_guesser
from banditlab.adversaries import GUESSER_NAMES
from banditlab.learners import RandomLearner
from process_caches import PROCESS_CACHES, clear_process_caches
from test_adversaries import CLOSED_FORMS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "banditlab"
ALIASES = {"bl": "banditlab", "catalog": "banditlab.catalog"}


def bench_names() -> set[tuple[str, str, str]]:
    """(file, module, name) for every package name a bench/ script reads."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ALIASES:
                    found.add((path.name, ALIASES[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("banditlab"):
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_name_the_benchmark_reads_still_exists():
    names = bench_names()
    # the workloads read at least these; an empty or shrunken scan proves nothing
    assert ("workloads.py", "banditlab", "capacity") in names
    assert ("workloads.py", "banditlab.catalog", "parse_spec") in names
    missing = sorted(
        f"{file}: {module}.{name}"
        for file, module, name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def read_names(paths) -> set[str]:
    """Every name the files read, as a bare name or as an attribute."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_exported_name_has_a_reader():
    init = PACKAGE / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"run_game", "ldim", "read_class"} <= exported
    readers = [path for path in sorted(PACKAGE.glob("*.py")) if path != init]
    readers += [path for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "test_api.py"]
    readers += sorted(BENCH.glob("*.py"))
    assert sorted(exported - read_names(readers)) == []


def test_every_module_reads_each_name_it_imports():
    unread = []
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        unread += [f"{path.name}: {name}" for name in sorted(imported - read_names([path]))]
    assert unread == []


def _is_cache(decorator) -> bool:
    """Whether a decorator is `functools.cache` or `lru_cache`, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


def test_the_test_helper_clears_every_per_process_cache():
    """A cache left warm between tests can hide a later test's patch, so every
    `functools.cache` in the package must be one `clear_process_caches` clears."""
    cached = {
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_cache, node.decorator_list))
    }
    listed = {(fn.__module__.rpartition(".")[2], fn.__qualname__) for fn in PROCESS_CACHES}
    assert len(cached) >= 6 and cached == listed
    clear_process_caches()
    assert [fn.cache_info().currsize for fn in PROCESS_CACHES] == [0] * len(PROCESS_CACHES)


def test_no_module_imports_scipy():
    # the package computes every value itself; a test may use scipy as an oracle
    imports = []  # (module file, imported module) for every absolute import, nested ones too
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert ("harness.py", "numpy") in imports  # the scan sees imports at all
    assert [f"{file}: {module}" for file, module in imports if module.split(".")[0] == "scipy"] == []


# The benchmark also calls a guesser's methods, which the name scan above
# cannot see: it builds guessers as make_guesser(name, k, rng), and as
# make_guesser(name, k) for the deterministic ones, and plays them through
# guessing_game and through next_guess()/observe(guess, correct) by hand.


@pytest.mark.parametrize(
    "name, with_rng", [(name, True) for name in GUESSER_NAMES] + [(name, False) for name in CLOSED_FORMS]
)
def test_every_guesser_plays_the_protocol_the_benchmark_calls(name, with_rng):
    for k in range(2, 9):
        rng = np.random.default_rng(k)
        wrong = guessing_game(k, make_guesser(name, k, rng if with_rng else None), rng)
        twin = np.random.default_rng(k)  # the same stream: the hidden label, then the guesses
        hidden = int(twin.integers(k))
        if name == "random":
            assert wrong == sum(RandomLearner(k).predict(0, twin) != hidden for _ in range(k - 1))
        else:
            assert wrong == CLOSED_FORMS[name](k, hidden)

