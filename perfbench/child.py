"""Child processes of the benchmark; each runs in a fresh interpreter.

    child.py stamp                    kernel lane and versions (warm-up)
    child.py setup SPEC.json PROBES.json
                                      one cold load (set-up time sample)
    child.py run PROBES.json ARGV...  ``python -m fincov.cli ARGV...``
    child.py cli TRACE.json ARGV...   one traced ``fincov`` invocation
    child.py harness PLAN.json OUT.json TRACE.json|-
                                      one closure_harness pass

The parent puts ``src`` on PYTHONPATH and pins BLAS threads to 1.
"""

import json
import sys
import time

import hostspeed
from plan import digest_json


def stamp():
    import platform

    import numpy

    import fincov
    return {"kernel_lane": fincov.KERNEL_BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_stamp():
    import fincov.cli  # noqa: F401  (compiles the bytecode of every layer)
    print(json.dumps(stamp()))
    return 0


def run_setup(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import fincov.cli as cli
    if spec["kind"] == "cli":
        for item in spec["inputs"]:
            try:
                cli.load_input(item)
            except cli.InputError:
                pass  # a broken table: rejecting it is the load's work
    else:
        build_harness_inputs(spec["plan"])
    return 0


def run_cli(argv):
    """``python -m fincov.cli ARGV...``, in this interpreter."""
    import runpy
    sys.argv = ["fincov.cli", *argv]
    try:
        runpy.run_module("fincov.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()


def run_cli_traced(trace_path, argv):
    from tracer import Tracer
    tr = Tracer()
    tr.install()
    import fincov.cli as cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tr.dump(trace_path)


# ---------------------------------------------------------------------------
# closure_harness
# ---------------------------------------------------------------------------

def build_harness_inputs(plan):
    """Seeded small categories, seeded mixed functors and the
    abelian-groups ambient, each with the digest pinned in refs.json."""
    from fincov import algkit, instances
    cats = {s: instances.random_category(s, (4, 12))
            for s in plan["categories"]}
    functors = {s: instances.random_mixed_functor(s)
                for s in plan["functors"]}
    amb = algkit.build_finalg_category(algkit.group_theory(), 8,
                                       instances.abelian_groups_upto(4))
    digests = {f"cat:{s}": digest_json(C.to_json()) for s, C in cats.items()}
    digests.update({f"functor:{s}": digest_json(F.to_json())
                    for s, F in functors.items()})
    digests["ambient"] = digest_json(sorted(repr(A)
                                             for A in amb.objects()))
    return cats, functors, amb, digests


def harness_instances(plan, cats, functors, amb):
    """Yield (key, thunk) per instance; a thunk returns (status, digest).

    status is "ok", or "wrong" when a conclusion fails under verified
    hypotheses (a checker bug).
    """
    from fincov import coverage, morphclass, theorems, variance

    def closure(fn, *args, **kwargs):
        def thunk():
            rep = fn(*args, **kwargs)
            status = "wrong" if rep.counterexample is not None else "ok"
            return status, digest_json(rep.to_json())
        return thunk

    def chain(n, k):
        return coverage.build_chain_type(n, k, "cov")

    def roundtrip(F):
        def thunk():
            if variance.validate_mixed_functor(F) is not None:
                return "ok", "hypothesis-failed"
            back = variance.assemble_mixed_functor(
                variance.split_mixed_functor(F))
            return ("ok", "roundtrip") if back == F else \
                ("wrong", "roundtrip-differs")
        return thunk

    # instance kinds alternate along the pass, category by category, so
    # every kind samples the whole pass rather than one stretch of it
    order = plan["categories"]
    fseeds = plan["functors"]
    for i, s in enumerate(order):
        C = cats[s]
        M = morphclass.builtin_class(C, "monos")
        E = morphclass.builtin_class(C, "isos")
        tau = coverage.RuleCoverage([chain(1, 1)], M)
        for k, n in ((0, 1), (1, 1), (1, 2), (2, 2)):
            yield f"sub:{s}:{n},{k}", closure(
                theorems.verify_closure_subobjects, C, [chain(n, k)], M,
                cap=2048)
        mors = sorted(C.morphisms())
        for f in mors[:12]:
            yield f"quot:{s}:{f}", closure(
                theorems.verify_closure_quotients, C, tau, E, M, f, cap=512)
        for f in mors[:8]:
            for phi in C.morphisms_into(C.tgt(f))[:3]:
                sq = C.find_pullback(f, phi)
                if sq is not None:
                    yield f"ext:{s}:{f}:{phi}", closure(
                        theorems.verify_closure_extensions, C, tau, E, M,
                        sq, cap=512)
        lo = i * len(fseeds) // len(order)
        hi = (i + 1) * len(fseeds) // len(order)
        for fs in fseeds[lo:hi]:
            yield f"roundtrip:{fs}", roundtrip(functors[fs])

    Ea = morphclass.builtin_class(amb, "surjections")
    Ma = morphclass.builtin_class(amb, "injections")
    tau_a = coverage.RuleCoverage([chain(1, 1)], Ma)
    roster = list(amb.objects())
    for G in roster:
        if G.size > 4:
            continue
        for H in roster:
            for f in amb.hom(G, H):
                if f.is_surjective():
                    yield f"ambient-quot:{f!r}", closure(
                        theorems.verify_closure_quotients, amb, tau_a, Ea,
                        Ma, f, cap=512)
    FS = morphclass.FactorizationSystem(amb, Ea, Ma, {})
    Z1 = next(A for A in roster if A.name == "Z1")
    for G in roster:
        for H in roster:
            for f in amb.hom(G, H):
                if not f.is_surjective() or G.size > 4:
                    continue
                phi = amb.hom(Z1, H)[0]
                sq = amb.find_pullback(f, phi)
                yield f"ambient-ext:{f!r}", closure(
                    theorems.verify_closure_extensions, amb, tau_a, Ea, Ma,
                    sq, cap=64, FS=FS, probe_cap=60)
    for a in roster:
        if a.name not in plan["product_first"]:
            continue
        for b in roster:
            if a.size * b.size <= amb.size_cap and a.size <= 4 \
                    and b.size <= 4:
                yield f"ambient-product:{a.name}x{b.name}", closure(
                    theorems.verify_product_closure, amb, tau_a, Ea, Ma,
                    a, b, cap=64, FS=FS, probe_cap=60)


def run_harness(plan_path, out_path, trace_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tr = None
    if trace_path != "-":
        from tracer import Tracer
        tr = Tracer()
        tr.install()
    import fincov.cli  # noqa: F401  (same import floor as the CLI)
    cats, functors, amb, digests = build_harness_inputs(plan)
    results = []
    clock = time.perf_counter
    # host-speed probes between instances; each instance records the
    # index of the last probe before it
    probes = [hostspeed.probe()]
    last_probe = clock()
    for i, (key, thunk) in enumerate(harness_instances(plan, cats, functors,
                                                       amb)):
        if tr is not None:
            tr.op = i
        t = clock()
        try:
            status, dig = thunk()
        except Exception as exc:  # a crashed instance is a failed operation
            status, dig = "crashed", f"{type(exc).__name__}: {exc}"
        results.append([key, clock() - t, status, dig, len(probes) - 1])
        if clock() - last_probe >= hostspeed.PROBE_EVERY_S:
            probes.append(hostspeed.probe())
            last_probe = clock()
    probes.append(hostspeed.probe())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"input_digests": digests, "instances": results,
                   "probes": probes}, fh)
    if tr is not None:
        tr.dump(trace_path)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "stamp":
        return run_stamp()
    if mode == "setup":
        with hostspeed.probing(argv[2]):
            return run_setup(argv[1])
    if mode == "run":
        with hostspeed.probing(argv[1]):
            return run_cli(argv[2:])
    if mode == "cli":
        return run_cli_traced(argv[1], argv[2:])
    if mode == "harness":
        return run_harness(argv[1], argv[2], argv[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
