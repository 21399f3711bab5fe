"""The benchmark's correctness references hold in process.

``perfbench/refs.json`` pins every output the benchmark may check: the
exit code and report digest of each CLI pool operation, the status and
report digest of each closure-harness instance, and the digests of the
harness inputs and of the generated input files.  A change that alters
any pinned report fails here, in the tier-1 suite, instead of as a wrong
result in a benchmark run.  Re-recording ``refs.json``
(``perfbench/record_refs.py``) moves this test with it.

The benchmark's own modules (``plan``, ``child``, ``run``) are imported
and only read; the generated input files are written under a temporary
directory, never into the repository's ``.bench_out/``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402

from fincov import cli  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    with open(PERFBENCH / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return SimpleNamespace(rc=rc, out=out.getvalue(), err=err.getvalue())


def test_cli_pool_matches_refs(refs, tmp_path, monkeypatch):
    """Every generated input file has its pinned digest, and every CLI
    pool operation (corpus, random, exported and broken inputs) its
    pinned exit code and report digest (the violated law for a broken
    table)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / plan.INPUT_DIR).mkdir(parents=True)
    fpool = plan.file_pool()
    inputs = {}
    for ikey, _ in fpool.values():
        if ikey not in inputs:
            text = plan.make_input(ikey)
            inputs[ikey] = plan.digest(text)
            Path(plan.input_path(ikey)).write_text(text, encoding="utf-8")
    assert inputs == refs["inputs"]

    keys = sorted(plan.corpus_pool()) + sorted(fpool)
    got = {key: list(run.cli_outcome(key, _run_cli(plan.op_argv(key)[0])))
           for key in keys}
    assert got.keys() == refs["cli"].keys()
    wrong = {key: (out, refs["cli"][key]) for key, out in got.items()
             if out != refs["cli"][key]}
    assert not wrong


def test_closure_harness_matches_refs(refs):
    """The harness inputs of the whole pool have their pinned digests, and
    every closure-harness instance is "ok" with its pinned digest."""
    full = {"categories": list(range(plan.HARNESS_CATEGORIES)),
            "functors": list(range(plan.HARNESS_FUNCTOR_POOL)),
            "product_first": list(plan.PRODUCT_FIRST_FACTORS)}
    cats, functors, amb, digests = child.build_harness_inputs(full)
    assert digests == refs["harness_inputs"]

    got = {key: thunk() for key, thunk in
           child.harness_instances(full, cats, functors, amb)}
    assert got.keys() == refs["harness"].keys()
    wrong = {key: (out, refs["harness"][key]) for key, out in got.items()
             if out != ("ok", refs["harness"][key])}
    assert not wrong
