import hashlib
import json
import sys

import pytest

from fincov import instances
from fincov.cli import load_input, main
from fincov.report import SCHEMA_VERSION


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_schema_version(capsys):
    code, out = run_cli(["schema-version"], capsys)
    assert code == 0 and out.strip() == SCHEMA_VERSION


def test_protomodularity_counterexample_exit_code(capsys):
    code, out = run_cli(["check", "protomodularity",
                         "--input", "corpus:set_skeleton_2",
                         "--classes", "E=retractions,M=all",
                         "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["schema"] == SCHEMA_VERSION
    assert rep["report"]["counterexample"]


def test_compact_pass_exit_code(capsys):
    code, out = run_cli(["check", "compact", "--input", "corpus:finite_top",
                         "--coverage", "open-covers", "--kappa", "2",
                         "--object", "X1.0", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["objects"]["X1.0"]["compact"] is True


def test_compact_params_echo(capsys):
    code, out = run_cli(["check", "compact", "--input", "corpus:sub_Z8",
                         "--object", "u0", "--seed", "3", "--cap", "64",
                         "--kappa", "3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["params"] == {"seed": 3, "cap": 64, "kappa": 3}


def test_closure_extensions_hypothesis_exit_code(capsys):
    code, out = run_cli(["check", "closure-extensions",
                         "--input", "corpus:set_skeleton_2",
                         "--classes", "E=retractions,M=all",
                         "--chain-n", "1", "--chain-smalls", "1",
                         "--morphism", "f2>1:00", "--along", "f1>1:0",
                         "--format", "json"], capsys)
    assert code == 2


def test_input_error_exit_code(capsys, tmp_path):
    code = main(["check", "compact", "--input", "corpus:not_a_fixture"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == (
        "unknown corpus fixture 'not_a_fixture'; known: abelian_ambient, "
        "diamond, finite_top, group_cat_D4, group_cat_Q8, group_cat_V4, "
        "group_cat_Z2, group_cat_Z2^3, group_cat_Z4, group_cat_Z4xZ2, "
        "group_cat_Z8, groups_ambient, monoids_ambient, poset_2chain, "
        "poset_3chain, poset_4chain, set_skeleton_2, set_skeleton_3, "
        "sub_Z4, sub_Z8")
    # bad arguments end with exit 4 and a message, not a traceback, a
    # hypothesis failure or a capped verdict
    compact = ["check", "compact", "--input", "corpus:sub_Z8",
               "--object", "u0"]
    rule = json.dumps({"category": instances.set_skeleton(2).category
                       .to_json(),
                       "coverage": {"rule": {"J": [{"chain": {
                           "n": 1, "smalls": 5}}], "M": "monos"}}})
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(rule, encoding="utf-8")
    from fincov.algkit import group_theory
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({
        "theory": group_theory().to_json(),
        "algebras": [instances.cyclic_group(4).to_json(),
                     instances.cyclic_group(2).to_json()]}), encoding="utf-8")
    hom = ["check", "uniformity", "--input", str(alg_path), "--hom"]
    not_objects = []
    for i, text in enumerate(["[]", "5", '"str"', '{"category": 5}',
                              '{"category": []}']):
        path = tmp_path / f"not_object{i}.json"
        path.write_text(text, encoding="utf-8")
        not_objects.append((["check", "validate", "--input", str(path)],
                            "must be a JSON object"))
    bad_tables = []
    for i, composition in enumerate([[["x", "y"]], []]):
        path = tmp_path / f"bad_table{i}.json"
        path.write_text(json.dumps({
            "objects": ["a", ["b"]], "morphisms": [], "identities": {},
            "composition": composition}), encoding="utf-8")
        bad_tables.append(["check", "validate", "--input", str(path)])
    top = ["check", "compact", "--input", "corpus:finite_top", "--coverage",
           "open-covers", "--object", "X1.0"]
    cases = not_objects + [
        (bad_tables[0], "not enough values to unpack"),
        (bad_tables[1], "every id must be a string"),
        (top + ["--kappa", "-1"], "--kappa must be at least 0, got -1"),
        (compact + ["--kappa", "-2"], "--kappa must be at least 0, got -2"),
        (compact + ["--diagram-types",
                    '{"powerset": {"index": [1, 2], "kappa": -1}}'],
         "kappa must be at least 0, got -1"),
        (["check", "compact", "--input", "corpus:sub_Z8", "--object",
          "nope"], "unknown object 'nope'"),
        (compact + ["--chain-n", "-1"], "need 0 <= small_prefix <= n"),
        (compact + ["--chain-smalls", "5"], "need 0 <= small_prefix <= n"),
        (compact + ["--diagram-types", "chain:x"],
         "cannot read diagram types chain:x"),
        (["check", "compact", "--input", str(rule_path), "--object", "S1"],
         "need 0 <= small_prefix <= n"),
        (["check", "product-closure", "--input", "corpus:sub_Z8",
          "--objects", "u0,nope"], "unknown object 'nope'"),
        (compact + ["--cap", "0"], "--cap must be at least 1, got 0"),
        (compact + ["--cap", "-3"], "--cap must be at least 1, got -3"),
        (["suite", "--cap", "0"], "--cap must be at least 1, got 0"),
        (hom + ["Z4>Z2:9999"], "needs 4 images, each below 2"),
        (hom + ["Z4>Z2:01"], "needs 4 images, each below 2"),
        (hom + ["Z4Z2:0101"], "malformed hom spec"),
        (hom + ["Z4>Z2:01x1"], "malformed hom spec"),
    ]
    for argv, message in cases:
        assert main(argv) == 4, argv
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 4 and message in err["error"], argv


@pytest.mark.parametrize("classes, message", [
    ([5], "classes[0] must be an object"),
    (["x"], "classes[0] must be an object"),
    (None, "classes must be a list"),
    ([{"class": {"name": "E", "members": None}}],
     "classes[0].class.members must be a list of morphism ids"),
    ([{"class": {"name": "E", "members": 3}}],
     "classes[0].class.members must be a list of morphism ids"),
    ([{"class": {"name": "E", "members": ["nope"]}}],
     "classes[0].class.members names unknown morphism 'nope'"),
    ([{"class": {"name": "E", "members": "<predicate>"}}],
     "bind a builtin class by its name"),
], ids=["int-item", "str-item", "null-classes", "null-members",
        "int-members", "unknown-member", "predicate-members"])
def test_bad_class_entries_are_input_errors(classes, message, tmp_path,
                                            capsys):
    """A malformed ``classes`` section of an input file ends with exit 4
    and a message naming its JSON path, never a traceback or a verdict
    on a class it did not mean."""
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({
        "category": instances.set_skeleton(2).category.to_json(),
        "classes": classes}), encoding="utf-8")
    assert main(["check", "class-properties", "--input", str(path),
                 "--classes", "E=E"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 4 and message in err["error"]


def test_kappa_zero_keeps_empty_smalls_report(capsys):
    code, out = run_cli(["check", "compact", "--input", "corpus:finite_top",
                         "--coverage", "open-covers", "--kappa", "0",
                         "--object", "X1.0", "--format", "json"], capsys)
    rep = json.loads(out)["objects"]["X1.0"]
    assert code == 1 and rep["compact"] is False
    assert rep["flags"] == ["empty-smalls"]
    assert rep["failing"]["diagram_type"] == "P(1)kappa0cov"


def test_ambient_objects_by_name(capsys):
    code, out = run_cli(["check", "product-closure",
                         "--input", "corpus:abelian_ambient",
                         "--objects", "Z2,Z3",
                         "--classes", "E=surjections,M=injections",
                         "--format", "json"], capsys)
    rep = json.loads(out)["report"]
    assert code == 2 and rep["details"] == {"a": "FinAlgebra(Z2, |2|)",
                                            "b": "FinAlgebra(Z3, |3|)"}
    assert ["(E, M) protomodularity", True, None] in rep["hypotheses"]


def entry_fingerprint(entry):
    C = entry.category
    if C.concrete:
        # ambient classes are predicates over the roster
        cat = (C.name, C.size_cap, [A.key() for A in C.objects()])
        classes = {k: cl.to_json() for k, cl in entry.classes.items()}
    else:
        cat = C.to_json()
        classes = {k: (cl.name, cl.member_list())
                   for k, cl in entry.classes.items()}
    return cat, classes, type(entry.extra)


@pytest.mark.parametrize("max_size", [None, 4])
def test_lazy_corpus_input_matches_standard_corpus(monkeypatch, max_size):
    caps = {} if max_size is None else {"group_cap": 4, "monoid_cap": 4}
    full = instances.standard_corpus(**caps)
    assert ("group_cat_Z8" in full.names()) == (max_size is None)
    # each fixture built alone, from an empty cache
    monkeypatch.setattr(instances, "_corpus_cache", {})
    for name in full.names():
        C, entry, data = load_input(f"corpus:{name}", max_size)
        assert entry is not full[name]
        assert C is entry.category and data is None
        assert entry_fingerprint(entry) == entry_fingerprint(full[name])
    assert sorted(k[0] for k in instances._corpus_cache) == full.names()


def test_corpus_input_builds_only_its_fixture(monkeypatch):
    import fincov.algkit as algkit

    def refuse(*args, **kwargs):
        raise AssertionError("built a fixture that was not asked for")

    monkeypatch.setattr(instances, "_corpus_cache", {})
    monkeypatch.setattr(instances, "finite_top_category", refuse)
    monkeypatch.setattr(algkit, "build_finalg_category", refuse)
    C, entry, _ = load_input("corpus:sub_Z8")
    assert entry.name == "sub_Z8" and len(C.objects()) == 4
    assert list(instances._corpus_cache) == [("sub_Z8", 3, 8, 4)]


@pytest.mark.parametrize("check", ["protomodularity", "regular", "compact",
                                   "class-properties"])
def test_max_size_below_one_is_an_input_error(capsys, check):
    """--max-size 0 would build an empty ambient: a traceback for
    protomodularity, empty reports for the rest; it exits 4 instead."""
    code = main(["check", check, "--input", "corpus:abelian_ambient",
                 "--max-size", "0", "--format", "json"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == \
        "--max-size must be at least 1, got 0"


@pytest.mark.parametrize("check", [
    "validate", "classify", "variance", "class-properties",
    "factorization-system", "regular", "protomodularity",
    "protomodularity-equivalent", "compact", "coverage", "subordination",
    "image-compatibility", "closure-subobjects", "closure-quotients",
    "closure-extensions", "product-closure", "well-behaved", "hopfian",
    "mono-reflective", "image-closure"])
def test_category_check_on_a_file_without_category_is_input_error(
        check, tmp_path, capsys):
    """Every check but uniformity and monic-pullback reads a category; on
    a file that holds none it is an input error, exit 4, not a
    traceback."""
    path = tmp_path / "algebras.json"
    path.write_text('{"algebras": {}}', encoding="utf-8")
    assert main(["check", check, "--input", str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == (f"{check} reads explicit category tables, and "
                            f"{path} holds none")


def test_unknown_check_exit_code(capsys):
    code = main(["check", "definitely-not-a-check",
                 "--input", "corpus:poset_2chain"])
    assert code == 4


def test_validate_from_file(tmp_path, capsys):
    from fincov.instances import diamond_lattice
    path = tmp_path / "dia.json"
    path.write_text(json.dumps(diamond_lattice().to_json()))
    code, out = run_cli(["check", "validate", "--input", str(path),
                         "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["ok"] is True


def test_validate_corpus_reads_its_tables(corpus, monkeypatch, capsys):
    """validate on an explicit corpus fixture validates the category's own
    tables, with no to_json round trip, and prints the bytes it printed
    through one; on an algebra ambient it is an input error."""
    from fincov.fincat import FinCategory

    def refuse(self):
        raise AssertionError("to_json called")

    monkeypatch.setattr(FinCategory, "to_json", refuse)
    explicit = [name for name in corpus.names()
                if isinstance(corpus[name].category, FinCategory)]
    assert len(explicit) == 17 and "finite_top" in explicit
    for name in explicit:
        code, out = run_cli(["check", "validate", "--input",
                             f"corpus:{name}", "--format", "json"], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == \
            (0, "361b1c6afb9e5fbf"), name
    code = main(["check", "validate", "--input", "corpus:abelian_ambient"])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"] == ("validate reads explicit category tables, and "
                            "corpus:abelian_ambient holds none")


@pytest.mark.parametrize("classes,first", [
    ("E=epis,M=monos", True),
    ("E=isos,M=sections", False)])
def test_well_behaved_first_condition_reports_failing_parts(classes, first,
                                                            capsys):
    """The first condition carries no witness when it holds, and only the
    witnesses of its failing parts when not: never right-cancelability,
    which it does not ask."""
    code, out = run_cli(["check", "well-behaved", "--input",
                         "corpus:set_skeleton_2", "--classes", classes,
                         "--chain-n", "1", "--chain-smalls", "1",
                         "--format", "json"], capsys)
    cond = json.loads(out)["report"]["conditions"][0]
    assert code == 1
    assert cond == ["subordinated to stable left-cancelable M", first,
                    None if first else
                    "{'stable': ('f1>2:0', 'f1>2:1', 'f0>1:')}"]


def test_classify_flag_form(capsys):
    code, out = run_cli(["check", "--check", "classify",
                         "--input", "corpus:poset_2chain",
                         "--morphism", "o0<o1", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["morphisms"][0]["mono"] is True


def test_coverage_check_nonstable_class(capsys):
    code, out = run_cli(["check", "coverage",
                         "--input", "corpus:set_skeleton_2",
                         "--classes", "M=sections", "--chain-n", "1",
                         "--chain-smalls", "0", "--format", "json"], capsys)
    assert code == 1


def test_uniformity_check_from_file(tmp_path, capsys):
    from fincov.algkit import group_theory
    from fincov.instances import cyclic_group
    data = {
        "theory": group_theory().to_json(),
        "algebras": [cyclic_group(4).to_json(), cyclic_group(2).to_json()],
        "t": ["mul", ["x"], ["y"]],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["check", "uniformity", "--input", str(path),
                         "--hom", "Z4>Z2:0101", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["strongly_t_uniform"] is True


def test_monic_pullback_check(tmp_path, capsys):
    from fincov.algkit import group_theory
    from fincov.instances import cyclic_group
    data = {
        "theory": group_theory().to_json(),
        "algebras": [cyclic_group(4).to_json(), cyclic_group(2).to_json()],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["check", "monic-pullback", "--input", str(path),
                         "--hom", "Z4>Z2:0101", "--format", "json"], capsys)
    assert code == 0


def test_export_corpus(tmp_path, capsys):
    code = main(["export-corpus", str(tmp_path / "fixtures")])
    assert code == 0
    manifest = json.loads((tmp_path / "fixtures" / "manifest.json").read_text())
    assert "diamond" in manifest["fixtures"]
    body = json.loads((tmp_path / "fixtures" / "diamond.json").read_text())
    assert "category" in body and "classes" in body


# sha256 prefix of each file export-corpus wrote while it built every
# corpus fixture, the algebra ambients included
EXPORTED = {
    "diamond.json": "40332c0b6b288229", "finite_top.json": "10aa76f27e006e41",
    "group_cat_D4.json": "bbe5493789a9a5e1",
    "group_cat_Q8.json": "d2a1121af390915f",
    "group_cat_V4.json": "0ec1885ee0f55890",
    "group_cat_Z2.json": "a8be54d9829f3e0f",
    "group_cat_Z2^3.json": "c6527b6634a0d25e",
    "group_cat_Z4.json": "4480de82680a3738",
    "group_cat_Z4xZ2.json": "309dcdffe3a512e0",
    "group_cat_Z8.json": "dc15d1c615a70205",
    "manifest.json": "f559bbdbe02f69b1",
    "poset_2chain.json": "e9c082297c9e9cd8",
    "poset_3chain.json": "3ead145d4f7cc578",
    "poset_4chain.json": "c89cfef10dd6b952",
    "set_skeleton_2.json": "6a13ed4aa4697585",
    "set_skeleton_3.json": "919bd4d20e8d6bc1",
    "sub_Z4.json": "8d1fb854902c06e2", "sub_Z8.json": "7c79f50905fe9c5e",
}


def test_export_corpus_builds_no_ambient(tmp_path, monkeypatch, capsys):
    """export-corpus writes the 17 explicit fixtures and the manifest with
    the bytes it wrote while it built the whole corpus, and builds no
    algebra ambient: it succeeds from an empty fixture cache with the
    ambient constructor patched to raise."""
    import fincov.algkit as algkit

    def no_ambient(*args):
        raise AssertionError("export-corpus built an algebra ambient")
    monkeypatch.setattr(instances, "_corpus_cache", {})
    monkeypatch.setattr(algkit, "build_finalg_category", no_ambient)
    assert main(["export-corpus", str(tmp_path)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in tmp_path.iterdir()} == EXPORTED


def test_export_corpus_unusable_outdir_is_input_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    outdir = str(afile / "sub")
    assert main(["export-corpus", outdir]) == 4
    rep = json.loads(capsys.readouterr().err)
    assert rep["check"] == "input-error" and outdir in rep["error"]


@pytest.mark.parametrize("argv, fragment", [
    (["check", "compact", "--input", "corpus:sub_Z8", "--kappa", "abc"],
     "invalid int value: 'abc'"),
    (["check", "compact"], "required: --input"),
    (["check", "compact", "--input", "corpus:sub_Z8", "--bogus"], "--bogus"),
    (["check", "compact", "--input", "corpus:sub_Z8", "--format", "xml"],
     "invalid choice: 'xml'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "required: command"),
], ids=["bad-type", "missing-flag", "unknown-option", "bad-choice",
        "unknown-command", "no-command"])
def test_usage_errors_are_input_errors(argv, fragment, capsys):
    """A malformed command line gets the canonical input-error report and
    exit 4, as an unknown check name does; exit 2 is hypothesis failure."""
    assert main(argv) == 4
    captured = capsys.readouterr()
    rep = json.loads(captured.err)
    assert rep["check"] == "input-error" and rep["exit_code"] == 4
    assert fragment in rep["error"] and captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0 and "--input" in capsys.readouterr().out


def test_json_reports_byte_identical(capsys):
    args = ["check", "compact", "--input", "corpus:sub_Z4",
            "--classes", "M=monos", "--chain-n", "1", "--chain-smalls", "0",
            "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_hopfian_cli(capsys):
    code, out = run_cli(["check", "hopfian", "--input", "corpus:diamond",
                         "--classes", "M=monos", "--morphism", "o1<o1",
                         "--along", "oa<o1", "--truncation", "3",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["chain"]["stable_index"] == 0


def test_hopfian_cli_non_endomorphism_is_a_hypothesis_failure(capsys):
    """A morphism that is no endomorphism, along itself: the hypotheses
    fail (exit 2), with no traceback from composing f . pi0."""
    code, out = run_cli(["check", "hopfian", "--input", "corpus:sub_Z8",
                         "--classes", "M=monos", "--morphism", "u0<u01234567",
                         "--along", "u0<u01234567", "--format", "json"],
                        capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["chain"] is None
    assert rep["report"]["hypotheses"] == [
        ["f endomorphism", False, None], ["pi0 in M", True, None],
        ["pi0 fixed point", False, None]]


def test_variance_failure_witnesses_do_not_depend_on_hash_seed(tmp_path):
    """A variance failure names the least non-closed pair (g, f) and sorts
    unknown members, so two hash seeds give byte-identical reports."""
    import os
    import subprocess
    from pathlib import Path
    ids = [f"o{i}<o{i}" for i in range(4)]
    cases = {"closure": ids + ["o0<o2", "o1<o2", "o2<o3"],
             "members": ids + ["x", "y", "z", "w"]}
    src = str(Path(__file__).resolve().parent.parent / "src")
    for label, cov in cases.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(
            {"category": instances.chain_poset(3).to_json(),
             "variance": {"cov": cov, "contr": ids}}))
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run(
                [sys.executable, "-m", "fincov.cli", "check", "variance",
                 "--input", str(path), "--format", "json"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 1, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], label
        report = json.loads(outs[0])["report"]
        if label == "closure":
            assert report["reason"] == "cov not composition closed"
            assert report["witness"] == ["o2<o3", "o0<o2"]
        else:
            assert report["witness"] == ["w", "x", "y", "z"]


def _z2_input(**changes):
    """A groups theory with the algebra A = Z2, as JSON, with the named
    parts replaced: theory, algebra, t (None drops them)."""
    from fincov.algkit import group_theory
    theory = group_theory().to_json()
    algebra = {"name": "A", "carrier": [0, 1],
               "ops": {"mul": [[0, 1], [1, 0]], "inv": [0, 1], "e": 0}}
    data = {"theory": changes.get("theory", theory),
            "algebras": [changes.get("algebra", algebra)]}
    if "t" in changes:
        data["t"] = changes["t"]
    return data, theory, algebra


def test_malformed_algebra_input_exit_code(tmp_path, capsys):
    """Malformed theories, algebras and terms end with exit 4 and an
    InputError through both algebra checks, never a traceback."""
    _, theory, algebra = _z2_input()

    def with_theory(**kw):
        return _z2_input(theory={**theory, **kw})[0]

    def with_equation(lhs, vars_=("x",)):
        eqs = theory["equations"] + [{"vars": list(vars_), "lhs": lhs,
                                      "rhs": ["x"]}]
        return with_theory(equations=eqs)

    no_t = {k: v for k, v in theory.items() if k != "t"}
    cases = [
        (_z2_input(algebra={k: v for k, v in algebra.items()
                            if k != "name"})[0], "KeyError: 'name'"),
        (with_theory(symbols="x"), "TypeError"),
        (with_equation("x"), "malformed term: 'x'"),
        (_z2_input(algebra={**algebra, "ops": {
            **algebra["ops"], "mul": [[0, "z"], [1, 0]]}})[0],
         "operation table entry 'z' is not an int"),
        (with_equation(["mul", ["x"]]), "arity mismatch at mul"),
        (with_equation(["mul", ["x"], ["y"]]), "unbound variable y"),
        (_z2_input(t="bad")[0], "malformed term: 'bad'"),
        (_z2_input(t=["mul", ["x"], ["z"]])[0], "unbound variable z"),
        (_z2_input(theory=no_t)[0], "no binary term t"),
        (_z2_input(algebra={**algebra, "ops": {
            **algebra["ops"], "mul": [[0, 1, 1], [0]]}})[0], "totality"),
        (_z2_input(algebra={**algebra, "ops": {
            **algebra["ops"], "mul": [[0, 2], [1, 0]]}})[0], "totality"),
        (_z2_input(algebra={**algebra, "ops": {
            k: v for k, v in algebra["ops"].items() if k != "inv"}})[0],
         "totality"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"alg{i}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for check in ("uniformity", "monic-pullback"):
            argv = ["check", check, "--input", str(path), "--hom", "A>A:01"]
            assert main(argv) == 4, (i, check)
            err = json.loads(capsys.readouterr().err)
            assert err["exit_code"] == 4 and message in err["error"], \
                (i, check, err["error"])
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_z2_input()[0]), encoding="utf-8")
    assert main(["check", "uniformity", "--input", str(path), "--hom",
                 "A>A:01"]) == 0


def _run_fresh(argv):
    """cli.main(argv) in a fresh interpreter; returns (exit code, stdout
    before the last line, whether numpy is in sys.modules at the end)."""
    import os
    import subprocess
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "from fincov.cli import main\n"
              f"code = main({argv!r})\n"
              "loaded = 'numpy' in sys.modules\n"
              "sys.stdout.write('\\n%d %s' % (code, loaded))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out, last = proc.stdout.rsplit("\n", 1)
    code, loaded = last.split()
    return int(code), out, loaded == "True"


@pytest.mark.parametrize("expected, argv", [
    (1, ["check", "compact", "--input", "corpus:sub_Z8", "--classes",
         "M=monos", "--chain-n", "2", "--chain-smalls", "0"]),
    (0, ["check", "validate", "--input", "EXPORTED"]),
    (0, ["suite", "--seed", "7"]),
    (0, ["check", "classify", "--input", "corpus:group_cat_D4", "--format",
         "json"]),
], ids=["compact", "validate-file", "suite", "classify"])
def test_explicit_commands_do_not_import_numpy(expected, argv, tmp_path,
                                               capsys):
    """Explicit categories keep Python rows, so an explicit-category
    process loads no numpy."""
    if "EXPORTED" in argv:
        assert main(["export-corpus", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = [str(tmp_path / "sub_Z8.json") if a == "EXPORTED" else a
                for a in argv]
    code, _, loaded = _run_fresh(argv)
    assert (code, loaded) == (expected, False)


@pytest.mark.parametrize("digest, argv", [
    ("b6f9fa59fed52c0f", ["check", "classify", "--input",
                          "corpus:abelian_ambient"]),
    ("6a2f367999d27eb3", ["check", "protomodularity", "--input",
                          "corpus:groups_ambient", "--classes",
                          "E=surjections,M=all"]),
], ids=["classify", "protomodularity"])
def test_ambient_commands_import_no_numpy(digest, argv):
    """The algebra ambient keeps Python rows too: its commands leave numpy
    out of sys.modules and print the bytes recorded while its tables were
    numpy arrays."""
    code, out, loaded = _run_fresh(argv + ["--format", "json"])
    assert (code, loaded) == (0, False)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_harness_pass_imports_no_numpy(tmp_path):
    """A whole ``perfbench/child.py harness`` pass (plan seed 1) in a fresh
    interpreter leaves numpy out of sys.modules; its product closure of
    Z2 x Z4 on the 8-object abelian-groups ambient keeps the digest
    recorded while the ambient's tables were numpy arrays."""
    import os
    import subprocess
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    bench = str(root / "perfbench")
    sys.path.insert(0, bench)
    try:
        import plan as plans
    finally:
        sys.path.remove(bench)
    (tmp_path / "plan.json").write_text(
        json.dumps(plans.closure_harness_plan(1)), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), bench,
                      os.environ.get("PYTHONPATH")]))}
    script = ("import sys, child\n"
              "child.main(['harness', 'plan.json', 'out.json', '-'])\n"
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    out = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    results = {key: (status, dig)
               for key, _, status, dig, _ in out["instances"]}
    assert results["ambient-product:Z2xZ4"] == ("ok", "c264ac85fab64a3d")
    assert all(status == "ok" for status, _ in results.values())


# Exit code and digest of the canonical stdout, recorded before
# run_check took every decided verdict's code from report.verdict_code,
# for the checks that no other test or benchmark pool operation runs.
# They hold each exit code the checks can give on small fixtures: 0, 1,
# 2 (a failed hypothesis, or image-closure's failed factorization
# system) and 3 (a cap cut the decision short).
UNCOVERED_CHECKS = [
    (0, "7d9091b1b7c1a084", ["class-properties", "--input",
      "corpus:set_skeleton_2", "--classes", "E=retractions"]),
    (1, "73d0bb5d2432b5d7", ["protomodularity-equivalent", "--input",
      "corpus:set_skeleton_2", "--classes", "E=retractions,M=all"]),
    (0, "70a71854dd448d0c", ["subordination", "--input", "corpus:sub_Z8",
      "--classes", "M=monos", "--chain-n", "2", "--chain-smalls", "1"]),
    (0, "aa271fc097eb95f1", ["image-compatibility", "--input",
      "corpus:sub_Z8", "--classes", "E=epis,M=monos", "--chain-n", "1",
      "--chain-smalls", "1", "--morphism", "u0246<u01234567"]),
    (3, "17a7aa52dc5b56fb", ["image-compatibility", "--input",
      "corpus:sub_Z8", "--classes", "E=epis,M=monos", "--chain-n", "2",
      "--chain-smalls", "1", "--morphism", "u0246<u01234567", "--cap",
      "1"]),
    (0, "291d28b6c8e0bd66", ["closure-subobjects", "--input",
      "corpus:sub_Z8", "--classes", "M=monos", "--chain-n", "2",
      "--chain-smalls", "1"]),
    (3, "e681a2fa0b3df1d9", ["closure-subobjects", "--input",
      "corpus:sub_Z8", "--classes", "M=monos", "--chain-n", "2",
      "--chain-smalls", "1", "--cap", "1"]),
    (2, "ae6830c58f563037", ["closure-subobjects", "--input",
      "corpus:set_skeleton_2", "--classes", "M=retractions", "--chain-n",
      "1", "--chain-smalls", "0"]),
    (0, "9af5e905318a1f22", ["closure-quotients", "--input",
      "corpus:set_skeleton_2", "--classes", "E=isos,M=monos", "--chain-n",
      "1", "--chain-smalls", "1", "--morphism", "f2>2:10"]),
    (2, "d42c21302b17f1ae", ["closure-quotients", "--input",
      "corpus:set_skeleton_2", "--classes", "E=epis,M=monos", "--chain-n",
      "1", "--chain-smalls", "0", "--morphism", "f0>1:"]),
    (0, "64f3f25af61880fb", ["well-behaved", "--input",
      "corpus:poset_3chain", "--classes", "E=isos,M=all", "--chain-n", "1",
      "--chain-smalls", "1"]),
    (1, "95ff2024d1d52f72", ["well-behaved", "--input", "corpus:sub_Z8",
      "--classes", "E=epis,M=monos", "--chain-n", "1", "--chain-smalls",
      "1"]),
    (0, "16705ed56c95adeb", ["image-closure", "--input", "corpus:sub_Z8",
      "--classes", "E=isos,M=all,K=monos", "--chain-n", "1",
      "--chain-smalls", "1"]),
    (2, "fc0478bc561701a5", ["image-closure", "--input",
      "corpus:set_skeleton_2", "--classes", "E=epis,M=monos,K=all",
      "--chain-n", "1", "--chain-smalls", "1"]),
    (2, "89a20209743e3dcf", ["image-closure", "--input", "corpus:sub_Z8",
      "--classes", "E=epis,M=monos,K=monos", "--chain-n", "1",
      "--chain-smalls", "1"]),
    (3, "914d13dab00fdb07", ["image-closure", "--input",
      "corpus:set_skeleton_2", "--classes",
      "E=surjections,M=injections,K=isos", "--chain-n", "1",
      "--chain-smalls", "1", "--cap", "1"]),
]


@pytest.mark.parametrize("code,digest,args", UNCOVERED_CHECKS,
                         ids=[f"{a[0]}-{a[2][7:]}-{c}"
                              for c, _, a in UNCOVERED_CHECKS])
def test_uncovered_checks_keep_exit_code_and_report(code, digest, args,
                                                    capsys):
    got, out = run_cli(["check", *args, "--format", "json"], capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == \
        (code, digest)
