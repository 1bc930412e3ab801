"""The span tracer of perfbench names dmkit attributes by string; every one
of them must still exist, or a traced benchmark run fails.  The package
itself has no runtime dependency."""

from __future__ import annotations

import ast
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterator

import pytest

import dmkit.cli  # noqa: F401  (imports every dmkit module the tracer names)
from dmkit.setsystem import SetSystem

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    names = [(module, attr) for module, attr, _ in (*tracer.SPANS, *tracer.COUNTED, *tracer.CACHES)]
    names += [("dmkit.minorscan", "enumerate_minors"), ("dmkit.latticepath", "iter_regions"),
              ("dmkit.census", "_canonical_index_table")]
    for module, attr in names:
        assert callable(tracer._resolve(module, attr)[2]), (module, attr)


def test_every_traced_cache_is_an_lru_cache(tracer):
    for module, attr, _ in tracer.CACHES:
        hits, misses = tracer._cache_counts(module, attr)
        assert hits >= 0 and misses >= 0, (module, attr)


def _dmkit_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every dmkit module and of SetSystem, by name."""
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == "dmkit" or name.startswith("dmkit.") for attr, value in vars(module).items()}
    out.update((("SetSystem", attr), value) for attr, value in vars(SetSystem).items())
    return out


def test_tracer_installs_and_restores(tracer):
    # the traced benchmark rebinds methods on their class and functions in
    # every module that holds them; uninstall puts every original back
    before = _dmkit_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert SetSystem.__dict__["is_delta_matroid"] is not before["SetSystem", "is_delta_matroid"]
        assert SetSystem.from_bitmap("abc", 0b10010111).is_delta_matroid()
    finally:
        t.uninstall()
    spans = [t.names[i] for i in t.name]
    assert spans.count("setsystem.is_delta_matroid") == 1
    after = _dmkit_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_readme_reference_resolves():
    # a `module.name` reference in the README to a dmkit module names an
    # attribute that exists, so a rename or a deletion cannot leave the
    # documentation behind
    modules = {m.name for m in pkgutil.iter_modules([str(ROOT / "src" / "dmkit")])}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = {(module, path.rstrip(".")) for module, path in re.findall(r"`(\w+)\.([\w.]+)", text)
            if module in modules}
    assert len(refs) > 40
    for module, path in sorted(refs):
        target = importlib.import_module(f"dmkit.{module}")
        for part in path.split("."):
            assert hasattr(target, part), f"README names {module}.{path}"
            target = getattr(target, part)


def test_every_export_resolves():
    # each name in dmkit.__all__ is listed once and is an attribute of the
    # package, so a deletion cannot leave an export behind
    import dmkit

    assert len(set(dmkit.__all__)) == len(dmkit.__all__)
    missing = [name for name in dmkit.__all__ if not hasattr(dmkit, name)]
    assert not missing
    namespace: dict = {}
    exec("from dmkit import *", namespace)
    assert set(dmkit.__all__) <= namespace.keys()


def test_no_runtime_dependency():
    # numpy belongs to the test extra only; no module of the package
    # imports it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "numpy" in " ".join(project["optional-dependencies"]["test"])
    sources = sorted((ROOT / "src" / "dmkit").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), path


# The parameters an unbounded cache may be keyed on: sizes and names, each
# with a small range of values.
SIZE_OR_NAME_PARAMS = {"n", "i", "j", "m", "r", "cap", "class_id", "base", "total", "norths",
                       "start_y"}


def _is_unbounded_cache(decorator: ast.expr) -> bool:
    """@cache, or @lru_cache(None) / @lru_cache(maxsize=None), bare or
    through functools."""
    def name(node: ast.expr) -> str:
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    if not isinstance(decorator, ast.Call):
        return name(decorator) == "cache"
    if name(decorator.func) != "lru_cache":
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_unbounded_caches_are_keyed_on_sizes_and_names():
    # a family bitmap as the key of an unbounded cache would grow it with
    # every family a run meets, and peak_rss_mb is gated on every workload
    found = []
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    map(_is_unbounded_cache, node.decorator_list)):
                params = {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                          *node.args.kwonlyargs)}
                assert params <= SIZE_OR_NAME_PARAMS, (path.name, node.name, params)
                found.append(node.name)
    assert {"masks_without_bit", "excluded_minor_set", "_profiles"} <= set(found)


def _modules_but_setsystem() -> Iterator[tuple[str, ast.Module]]:
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        if path.name != "setsystem.py":
            yield path.name, ast.parse(path.read_text(), str(path))


def test_only_setsystem_names_the_canonical_form():
    # setsystem._canonical_form is the one canonicalization routine
    for module, tree in _modules_but_setsystem():
        for node in ast.walk(tree):
            named = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None))
            assert named not in {"canonical_form", "_canonical_form"}, (module, node.lineno)


def test_only_matroid_names_the_closures():
    # matroid.envelope_bitmap is the one full Higgs lift: no other module
    # intersects the spanning and independent closures itself
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        if path.name == "matroid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None))
            assert named not in {"_spanning_bitmap", "_independent_bitmap"}, (
                path.name, node.lineno)


def test_no_least_image_outside_setsystem():
    # no function outside setsystem takes the least image of an orbit or of
    # a relabelling walk, a canonical form of its own
    for module, tree in _modules_but_setsystem():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {call.func.attr if isinstance(call.func, ast.Attribute)
                         else getattr(call.func, "id", "")
                         for call in ast.walk(node) if isinstance(call, ast.Call)}
                assert not ("min" in calls and calls & {"orbit", "relabellings"}), (
                    module, node.name)


def test_every_definition_is_named_elsewhere():
    # dead code is deleted: every function, method and class of the
    # package is named outside its own definition, in src/, tests/,
    # perfbench/ or the README; a method only by an attribute reference
    # (`.name`), since its bare name may be any local word; dunders are
    # exempt
    sources = [*(ROOT / "src" / "dmkit").glob("*.py"), *(ROOT / "tests").rglob("*.py"),
               *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in sources}
    unnamed = []
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        tree = ast.parse("\n".join(lines[path]), str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(min([node.lineno, *(d.lineno for d in node.decorator_list)]),
                        node.end_lineno + 1)
            prefix = r"\." if id(node) in methods else r"(?<!\w)"
            word = re.compile(rf"{prefix}{re.escape(node.name)}(?!\w)")
            if not any(word.search(line) for other, text in lines.items()
                       for number, line in enumerate(text, 1)
                       if not (other == path and number in own)):
                unnamed.append((path.name, node.lineno, node.name))
    assert not unnamed


def _refusal_text(node: ast.Raise) -> str | None:
    """The text of a raised exception's string or f-string first argument,
    with every placeholder written {}; None for any other raise."""
    call = node.exc
    if not isinstance(call, ast.Call) or not call.args:
        return None
    text = call.args[0]
    if isinstance(text, ast.Constant) and isinstance(text.value, str):
        return text.value
    if isinstance(text, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in text.values)
    return None


def _raising_functions(tree: ast.Module, module: str) -> Iterator[tuple[str, str]]:
    """(refusal text, qualified name of the innermost function raising it)."""
    def visit(node: ast.AST, scope: str) -> Iterator[tuple[str, str]]:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Raise) and (text := _refusal_text(child)) is not None:
                yield text, scope
            yield from visit(child, inner)

    yield from visit(tree, module)


def test_each_refusal_text_is_raised_from_one_function():
    # a refusal states one fact, so its text lives in one function, which
    # every route to that refusal calls
    sources: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        for text, function in _raising_functions(ast.parse(path.read_text(), str(path)),
                                                 path.stem):
            sources.setdefault(text, set()).add(function)
    assert len(sources) > 60
    assert sources["bad JSON: {}"] == {"setsystem.decode_json"}
    shared = {text: sorted(functions) for text, functions in sources.items()
              if len(functions) > 1}
    assert not shared


def _references() -> dict[str, set[str]]:
    """Per function and method of the package, under its bare name and a
    method also as Class.method, every name and attribute it mentions.
    Same-named definitions share an entry, so reachability over it errs
    towards reaching too much."""
    out: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "dmkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            bodies = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in bodies:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(fn)}
                key = f"{node.name}.{fn.name}" if fn is not node else fn.name
                out.setdefault(key, set()).update(names - {None})
    return out


def _reached(roots: list[str]) -> set[str]:
    """The functions and methods reachable from the roots by _references."""
    refs = _references()
    seen, todo = set(roots), list(roots)
    while todo:
        for name in refs.get(todo.pop(), ()):
            if name in refs and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def _mentioned(roots: list[str]) -> set[str]:
    """Every name and attribute mentioned by a function or method
    reachable from the roots."""
    refs = _references()
    return set().union(*(refs[name] for name in _reached(roots) if name in refs))


def test_verdict_routes_take_no_witness_scan():
    # the verdicts want no witness; they scan smallest first, stop at any
    # hit and read every chunk of a removed set at once, so they must not
    # drift back to the witness scan, whose largest-first, split-by-split
    # order exists to name the first minor
    for root in ("_any_minor", "no_minor_bits", "ClassSpec.exminor", "ClassSpec.exminor_index"):
        seen = _reached([root])
        assert "_identity_first_moves" in seen and "lane_tables" in _mentioned([root]), root
        assert not seen & {"_first_minor", "has_minor_from", "_chunk_scan", "_removal_moves"}, root
    assert "excluded_minor_set" in _reached(["ClassSpec.exminor", "ClassSpec.exminor_index"])


def test_each_minor_kernel_keeps_its_job():
    # two kernels: witnesses read chunks split by split in combinations
    # order (_removal_moves); the one-family verdict (_any_minor) and the
    # lanes of every batch read the lane tables after the swaps of the
    # identity-first list
    roots = ["has_minor_from", "_first_minor", "classify_by_exminors", "is_binary_dm"]
    witness = _reached(roots)
    assert {"_chunk_scan", "_removal_moves"} <= witness
    assert "_identity_first_moves" not in witness and "lane_tables" not in _mentioned(roots)
    assert {"_lane_hits", "_lane_moves", "_any_minor"} <= _reached(["no_minor_bits"])


def test_census_stack_columns_leave_the_memo_alone():
    # the batched paving, sparse-paving and quotient forms decide by the
    # matroid table and the cyclic-set chain; stack_flags and its memo
    # serve the object API, and no census column may drift back to them
    seen = _reached(["paving_bits", "quotient_bits", "matroid_stack_bits", "equicardinal_bits"])
    assert {"matroid_layers", "is_quotient_chain", "_cyclic_bitmap"} <= seen
    assert "stack_flags" not in seen
    assert "is_quotient_chain" in _reached(["stack_flags"])


def test_transpose_mask_cache_covers_every_batch_length():
    # a batch of k families packs into ceil(k / 32) blocks of 32 x 32 bits,
    # and bit_planes looks the masks of each block count up in a bounded
    # cache: a census BATCH past the bound would rebuild them every batch
    from dmkit import census, setsystem
    from dmkit.setsystem import BATCH

    assert census.BATCH is BATCH
    blocks = -(-BATCH // 32)
    assert setsystem._transpose_masks.cache_parameters()["maxsize"] >= blocks
    setsystem._transpose_masks.cache_clear()
    for k in range(1, BATCH + 1, 31):
        setsystem.bit_planes(range(k))
        setsystem.bit_planes(range(k))
    info = setsystem._transpose_masks.cache_info()
    assert info.misses == info.currsize <= blocks


def test_lane_masks_cover_the_census_batch():
    # no_minor_bits relabels a batch in lanes by swap masks repeated in
    # BATCH lanes: a census batch fits one slice, the last lane of every
    # mask is the mask itself, and a longer batch is cut into slices
    from dmkit import census, minorscan
    from dmkit.catalog import ExminorClassId, excluded_minor_set
    from dmkit.setsystem import BATCH

    assert census.BATCH is minorscan.BATCH is BATCH
    for n in range(1, minorscan.WORD_MAX_N + 1):
        width = max(8, 1 << n)
        for m in range(n):
            moves = zip(minorscan._identity_first_moves(n, m), minorscan._lane_moves(n, m),
                        strict=True)
            for (_, swaps), lane_swaps in moves:
                assert [(s, mask >> width * (BATCH - 1)) for s, mask in lane_swaps] == list(
                    swaps), (n, m)
    targets = excluded_minor_set(ExminorClassId.DELTA_MATROID, 5)
    plan = minorscan._scan_plan(targets)
    # ending in the bases of U(1,1) + U(1,4), a delta-matroid that no
    # relabelling fixes, alone in the second slice
    batch = [(0x9E3779B9 * k) % (1 << 32) or 1 for k in range(BATCH)]
    batch.append(sum(1 << (1 | 1 << i) for i in range(1, 5)))
    want = sum(1 << b for b, i in enumerate(batch) if not minorscan._any_minor(i, 5, plan))
    assert minorscan.no_minor_bits(batch, 5, targets) == want
