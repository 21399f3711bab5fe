"""Cross-cutting interface tests: JSON loaders, CLI parameter paths and
materialized slices."""

import json

import pytest

from fincov.cli import main
from fincov.coverage import OpenCoverCoverage
from fincov.fincat import CatFunctor, FinCategory, validate_category
from fincov.instances import (cyclic_group, diamond_lattice,
                              finite_top_category, group_category,
                              set_skeleton)
from fincov.morphclass import builtin_class
from fincov.protomod import transport_classes
from fincov.variance import mixed_functor_from_json, variance_from_json


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_malformed_json_gives_schema_report():
    rep = validate_category({"objects": ["a"]})
    assert not rep and rep.law == "schema"


def test_cli_inline_diagram_types(capsys):
    code, out = run_cli(["check", "compact", "--input", "corpus:sub_Z8",
                         "--classes", "M=monos", "--diagram-types",
                         '[{"chain":{"n":2,"smalls":0,"dir":"cov"}}]',
                         "--object", "u01234567", "--format", "json"],
                        capsys)
    assert code == 1


def test_cli_diagram_types_file(tmp_path, capsys):
    path = tmp_path / "types.json"
    path.write_text(json.dumps([{"chain": {"n": 1, "smalls": 1}}]))
    code, _ = run_cli(["check", "compact", "--input", "corpus:diamond",
                       "--classes", "M=monos", "--diagram-types", str(path),
                       "--format", "json"], capsys)
    assert code == 0


def test_cli_rejects_non_directed_powerset(capsys):
    code = main(["check", "compact", "--input", "corpus:diamond",
                 "--classes", "M=monos", "--diagram-types",
                 '[{"powerset":{"index":["a","b"],"kappa":2}}]'])
    assert code == 4


def test_cli_coverage_from_input_file(tmp_path, capsys):
    dia = diamond_lattice()
    data = {"category": dia.to_json(),
            "coverage": {"rule": {"J": [{"chain": {"n": 1, "smalls": 1}}],
                                  "M": "monos"}}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["check", "coverage", "--input", str(path),
                         "--classes", "M=monos", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["is_coverage"] is True


def test_cli_max_size_rebuilds_ambient(capsys):
    code, out = run_cli(["check", "protomodularity",
                         "--input", "corpus:groups_ambient",
                         "--classes", "E=retractions,M=all",
                         "--max-size", "4", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert "within size cap 4" in rep["report"]["scope"]


def test_slice_materialization_counts():
    sk = set_skeleton(2)
    sl = sk.category
    from fincov.fincat import slice_category
    view = slice_category(sl, "S2")
    mat = view.to_fincategory()
    assert isinstance(mat, FinCategory)
    assert len(mat.objects()) == len(view.objects())
    assert len(mat.morphisms()) == len(view.morphisms())


def test_variance_json_roundtrip():
    from fincov.instances import klein_variance
    kv = klein_variance()
    again = variance_from_json(kv.category, kv.to_json())
    assert again == kv


def test_mixed_functor_loader_rejects_invalid():
    from fincov.instances import klein_variance
    kv = klein_variance()
    G = group_category(cyclic_group(2))
    with pytest.raises(ValueError):
        mixed_functor_from_json(kv, G, {
            "objects": {"*": "*"},
            "morphisms": {"g0": "g0", "g1": "g1", "g2": "g1", "g3": "g1"}})


def test_transport_rejects_broken_functor():
    C = diamond_lattice()
    obj_map = {o: o for o in C.objects()}
    mor_map = {m: m for m in C.morphisms()}
    mor_map["o0<o1"] = "o0<oa"  # wrong endpoints
    F = CatFunctor(C, C, obj_map, mor_map)
    rep = transport_classes([F], [(builtin_class(C, "all"),
                                   builtin_class(C, "all"))])
    assert rep.precondition_failure is not None
    assert rep.precondition_failure[0] == "functoriality"


def test_open_cover_cache_consistency():
    top = finite_top_category(2)
    occ = OpenCoverCoverage(top, kappa=2)
    a, _ = occ.coverings_of(top.category, "X1.0")
    b, _ = occ.coverings_of(top.category, "X1.0")
    assert a == b
    capped, flag = occ.coverings_of(top.category, "X2.0", cap=1)
    assert flag is True and len(capped) == 1


def test_no_attribute_probing_for_category_kinds():
    """The package asks what a category or class is through
    ``CategoryBase.concrete``, ``isinstance`` and facts decided from the
    members: no ``hasattr(_, "theory")``, ``hasattr(_, "spaces")`` or
    ``getattr(_, "iso_saturated", ...)`` anywhere in src/fincov."""
    import ast
    from pathlib import Path

    import fincov
    banned = {("hasattr", "theory"), ("hasattr", "spaces"),
              ("getattr", "iso_saturated")}
    found = []
    for path in sorted(Path(fincov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and (node.func.id, node.args[1].value) in banned:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _src_uses(banned):
    """Where src/fincov names any of ``banned``: as a name, attribute,
    definition, argument, imported module or string constant."""
    import ast
    from pathlib import Path

    import fincov
    found = []
    for path in sorted(Path(fincov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None),
                     getattr(node, "module", None)}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            if names & banned:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_one_coded_construction_for_derived_algebras():
    """The per-entry table builder, the pullback pair dicts, the verdicts
    kept on class objects and the ambient form label are gone from
    src/fincov: derived algebras come from ``algebra._coded_algebra``,
    mediators from the apex pairs, stability verdicts from the
    subalgebra cache and the class's own memo."""
    assert _src_uses({"_induced_ops", "pair_to_apex", "_pullback_verdicts",
                      "ambient_form"}) == []


def test_no_module_imports_numpy():
    """No module under src/fincov imports numpy: no import statement or
    ``from`` import names it, and no name, attribute or string constant
    is ``numpy`` or ``np``, so nothing loads it by name either."""
    assert _src_uses({"numpy", "np"}) == []


def test_composite_index_has_no_chunked_coder():
    """The whole-image coder of the ambient's composite index is gone from
    src/fincov: no ``_CODE_CHUNK`` loop and no ``_build_composite_index``
    (the from-scratch builder lives on in ``tests/oracles.py``)."""
    assert _src_uses({"_CODE_CHUNK", "_build_composite_index"}) == []


def test_only_cli_imports_the_fixture_module():
    """Among the modules under src/fincov, only ``cli`` names
    ``instances`` or ``fincov.instances`` in an import, a name or a
    string, so only it imports the fixture module: the library layers
    take posets and chains from ``fincat``."""
    users = _src_uses({"instances", "fincov.instances"})
    assert {u.split(":")[0] for u in users} == {"cli.py"}, users


def test_coverage_loads_no_fixture_or_algebra_module():
    """A fresh ``import fincov.coverage`` leaves ``fincov.instances`` and
    ``fincov.algkit`` out of sys.modules."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import fincov.coverage\n"
              "print(sorted(m for m in ('fincov.instances', 'fincov.algkit')"
              " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_algebra_loads_only_kernels():
    """A fresh ``import fincov.algebra`` loads no fincov module but
    ``fincov``, ``fincov.algebra`` and ``fincov.kernels``: the table-level
    algebra needs neither the categories nor the algebra ambient."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import fincov.algebra\n"
              "print(sorted(m for m in sys.modules"
              " if m == 'fincov' or m.startswith('fincov.')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == \
        "['fincov', 'fincov.algebra', 'fincov.kernels']\n"


def _fresh_cli(argv, tmp_path, first=None):
    """``cli.main(argv)`` in a fresh interpreter, after importing the
    module ``first`` if given.  Returns (exit code, stdout, the fincov
    modules whose body has run, whether ``first`` is still the module in
    sys.modules and on ``cli``).  A layer that has not run is still a
    ``_LazyModule``; one that has is a plain module."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import json, sys, types\n"
              f"first = {first!r}\n"
              "if first:\n"
              "    __import__(first)\n"
              "    early = sys.modules[first]\n"
              "import fincov.cli as cli\n"
              f"code = cli.main({argv!r})\n"
              "same = not first or (sys.modules[first] is early and "
              "getattr(cli, first.split('.')[1]) is early)\n"
              "ran = sorted(n.split('.')[1] for n, m in sys.modules.items()"
              " if n.startswith('fincov.') and type(m) is types.ModuleType)\n"
              "with open('layers.json', 'w') as fh:\n"
              "    json.dump([code, ran, same], fh)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, ran, same = json.loads((tmp_path / "layers.json").read_text())
    return code, proc.stdout, set(ran), same


def test_commands_run_only_the_layers_they_reach(tmp_path, capsys):
    """In a fresh interpreter, ``import fincov.cli`` registers the heavy
    layers unexecuted, and a command runs only the layers it reaches: a
    file ``check validate`` runs ``cli``, ``report``, ``fincat`` and
    ``kernels`` alone; protomodularity on ``set_skeleton_2`` runs neither
    ``algkit`` nor ``theorems``; classify on ``group_cat_Z8`` builds its
    group from ``algebra`` and runs neither ``algkit`` nor ``variance``;
    compact on ``sub_Z8`` runs ``algebra`` and ``coverage`` but neither
    ``algkit``, ``protomod`` nor ``theorems``; mono-reflectivity on a
    file runs neither ``theorems``, ``coverage`` nor ``protomod``."""
    from fincov.cli import main
    assert main(["export-corpus", str(tmp_path)]) == 0
    capsys.readouterr()
    code, _, ran, _ = _fresh_cli(
        ["check", "validate", "--input", str(tmp_path / "sub_Z8.json")],
        tmp_path)
    assert (code, ran) == (0, {"cli", "report", "fincat", "kernels"})
    code, _, ran, _ = _fresh_cli(
        ["check", "protomodularity", "--input", "corpus:set_skeleton_2"],
        tmp_path)
    assert code == 1 and "protomod" in ran
    assert not ran & {"algkit", "theorems"}
    code, _, ran, _ = _fresh_cli(
        ["check", "classify", "--input", "corpus:group_cat_Z8"], tmp_path)
    assert code == 0 and "algebra" in ran
    assert not ran & {"algkit", "variance"}
    code, _, ran, _ = _fresh_cli(
        ["check", "compact", "--input", "corpus:sub_Z8"], tmp_path)
    assert code == 1 and {"algebra", "coverage"} <= ran
    assert not ran & {"algkit", "protomod", "theorems"}
    code, _, ran, _ = _fresh_cli(
        ["check", "mono-reflective", "--input",
         str(tmp_path / "group_cat_Q8.json")], tmp_path)
    assert code == 0 and "morphclass" in ran
    assert not ran & {"theorems", "coverage", "protomod"}


def test_layer_imported_before_cli_stays_the_same_module(tmp_path):
    """A layer imported before ``fincov.cli`` is not registered again:
    sys.modules and ``cli`` keep that module object, and the command
    prints the same bytes as without the early import."""
    argv = ["check", "class-properties", "--input", "corpus:set_skeleton_2",
            "--classes", "E=monos", "--format", "json"]
    late = _fresh_cli(argv, tmp_path)
    early = _fresh_cli(argv, tmp_path, first="fincov.morphclass")
    assert early[3] is True
    assert early[:2] == late[:2]


def test_traced_cli_records_calls_in_lazy_layers(tmp_path):
    """``perfbench/child.py cli`` wraps every layer after ``import
    fincov.cli``; a traced README closure-extensions run counts calls in
    layers whose bodies ran on first use."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])}
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "cli",
         str(trace), "check", "closure-extensions", "--input",
         "corpus:set_skeleton_2", "--classes", "E=retractions,M=all",
         "--chain-n", "1", "--chain-smalls", "1", "--morphism", "f2>1:00",
         "--along", "f1>1:0", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    stats = json.loads(trace.read_text(encoding="utf-8"))["stats"]
    for name in ("theorems.verify_closure_extensions",
                 "protomod.check_protomodularity_pair",
                 "coverage.decide_tau_compact"):
        assert stats[name][0] >= 1, name


def test_no_module_imports_dataclasses():
    """Records under src/fincov are plain classes with hand-written
    ``__init__`` methods: no module names ``dataclasses`` or
    ``dataclass``, so none generates and compiles methods at import."""
    assert _src_uses({"dataclasses", "dataclass"}) == []


def test_cli_and_harness_pass_load_no_dataclasses_or_inspect(tmp_path):
    """In a fresh interpreter, neither ``import fincov.cli`` nor a whole
    ``perfbench/child.py harness`` pass after it loads ``dataclasses`` or
    ``inspect``."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])}
    script = ("import json, sys\n"
              "def loaded():\n"
              "    print(sorted(m for m in ('dataclasses', 'inspect')"
              " if m in sys.modules))\n"
              "import fincov.cli\n"
              "loaded()\n"
              "import child, plan\n"
              "with open('plan.json', 'w') as fh:\n"
              "    json.dump(plan.closure_harness_plan(1), fh)\n"
              "assert child.main(['harness', 'plan.json', 'out.json', '-'])"
              " == 0\n"
              "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
    out = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert {status for _, _, status, _, _ in out["instances"]} == {"ok"}
