"""Command-line front door.

Loads JSON inputs (or named corpus fixtures via ``corpus:<name>``),
dispatches a named check and emits a deterministic report.  Exit codes:
0 pass, 1 definition failure or counterexample, 2 hypothesis failure,
3 inconclusive (cap), 4 input error, a malformed command line included;
every decided verdict takes its code from ``report.verdict_code``.  JSON
reports carry no timing, so identical (inputs, flags, seed) are
byte-identical; the text format appends wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import lazy_layer
from . import report as rp
from .fincat import FinCategory, category_from_json, classify_morphism, \
    validate_category

# The layers a command may need.  Each is registered unexecuted and runs
# its body when a command first reads one of its attributes, so a process
# compiles only the layers its command reaches.
algebra = lazy_layer("algebra")
algkit = lazy_layer("algkit")
coverage = lazy_layer("coverage")
instances = lazy_layer("instances")
morphclass = lazy_layer("morphclass")
protomod = lazy_layer("protomod")
theorems = lazy_layer("theorems")
variance = lazy_layer("variance")


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors (a bad type or choice, a missing or unknown flag) are
    input errors, exit 4; argparse's own exit 2 means hypothesis failure
    here.  Subcommand parsers take this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="fincov")
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run a named check")
    chk.add_argument("name", nargs="?", help="check name")
    chk.add_argument("--check", dest="check_flag", help="check name (flag form)")
    chk.add_argument("--input", required=True,
                     help="input JSON path or corpus:<name>")
    chk.add_argument("--classes", default="",
                     help="role bindings, e.g. E=epis,M=monos[,K=...]")
    chk.add_argument("--diagram-types", default=None,
                     help="JSON list of diagram type specs (path or inline)")
    chk.add_argument("--kappa", type=int, default=2)
    chk.add_argument("--chain-n", type=int, default=2)
    chk.add_argument("--chain-smalls", type=int, default=None)
    chk.add_argument("--direction", default="cov", choices=["cov", "contr"])
    chk.add_argument("--coverage", default=None,
                     choices=["rule", "open-covers", "closed-families"])
    chk.add_argument("--cap", type=int, default=512)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--format", default="text", choices=["text", "json"])
    chk.add_argument("--max-size", type=int, default=None,
                     help="ambient size cap override")
    chk.add_argument("--object", default=None, help="anchor object id")
    chk.add_argument("--objects", default=None,
                     help="comma-separated object pair (products)")
    chk.add_argument("--morphism", default=None, help="morphism id")
    chk.add_argument("--along", default=None,
                     help="second cospan leg (extensions) or fixed point "
                          "(hopfian)")
    chk.add_argument("--truncation", type=int, default=8,
                     help="chain truncation depth for hopfian runs")
    chk.add_argument("--hom", default=None,
                     help="algebra hom as src>tgt:images, e.g. Z4>Z2:0101")

    sv = sub.add_parser("schema-version", help="print the report schema id")
    sv.add_argument("--format", default="text", choices=["text", "json"])

    exp = sub.add_parser("export-corpus",
                         help="write corpus fixtures and manifest")
    exp.add_argument("outdir")

    ste = sub.add_parser("suite", help="run the standard deterministic suite")
    ste.add_argument("--seed", type=int, default=0)
    ste.add_argument("--cap", type=int, default=256)
    ste.add_argument("--format", default="json", choices=["text", "json"])
    return p


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def load_input(spec, max_size=None):
    """Returns (category, entry-or-None, raw data)."""
    if spec.startswith("corpus:"):
        name = spec.split(":", 1)[1]
        caps = {} if max_size is None else \
            {"group_cap": min(max_size, 8), "monoid_cap": min(max_size, 4)}
        try:
            entry = instances.corpus_entry(name, **caps)
        except KeyError:
            names = instances.corpus_names(**caps)
            if name in names:
                raise  # a known fixture's builder failed
            raise InputError(f"unknown corpus fixture {name!r}; "
                             f"known: {', '.join(names)}")
        return entry.category, entry, None
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input {spec}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"input {spec} must be a JSON object, "
                         f"not {type(data).__name__}")
    if "objects" in data:
        body = data
    elif "category" in data:
        body = data["category"]
    else:
        return None, None, data
    if not isinstance(body, dict):
        raise InputError(f"the category in {spec} must be a JSON object, "
                         f"not {type(body).__name__}")
    cat = category_from_json(body, name=spec)
    if not isinstance(cat, FinCategory):
        raise InputError(f"input category invalid: {cat.to_json()}")
    return cat, None, data


def resolve_class(C, entry, data, name):
    if entry is not None and name in entry.classes:
        return entry.classes[name]
    shape = '{"class": {"name": ..., "members": [morphism ids]}}'
    items = data.get("classes", []) if data else []
    if not isinstance(items, list):
        raise InputError(f"classes must be a list of {shape}")
    for i, item in enumerate(items):
        body = item.get("class") if isinstance(item, dict) else None
        if not isinstance(body, dict):
            raise InputError(f"classes[{i}] must be an object {shape}")
        if body.get("name") != name:
            continue
        members = body.get("members")
        where = f"classes[{i}].class.members"
        if members == "<predicate>":
            raise InputError(f"{where} is \"<predicate>\", which lists no "
                             "members: bind a builtin class by its name "
                             "instead, as in --classes E=monos")
        if not isinstance(members, list) or \
                not all(isinstance(m, str) for m in members):
            raise InputError(f"{where} must be a list of morphism ids")
        unknown = sorted(set(members).difference(C.morphisms()))
        if unknown:
            raise InputError(f"{where} names unknown morphism {unknown[0]!r}")
        return morphclass.MorphismClass.from_json(C, item)
    try:
        return morphclass.builtin_class(C, name)
    except KeyError:
        raise InputError(f"unknown class {name!r}")


def parse_class_bindings(spec):
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"malformed class binding {part!r}")
        role, name = part.split("=", 1)
        out[role.strip()] = name.strip()
    return out


def diagram_type(spec):
    """One diagram type from its JSON spec ({"chain": ...} or
    {"powerset": ...})."""
    try:
        if "chain" in spec:
            c = spec["chain"]
            return coverage.build_chain_type(c["n"], c["smalls"],
                                             c.get("dir", "cov"))
        if "powerset" in spec:
            pw = spec["powerset"]
            dt = coverage.build_powerset_type(pw["index"], pw["kappa"],
                                              pw.get("dir", "cov"))
        else:
            raise InputError(f"unknown diagram type spec {spec}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"diagram type spec {spec} invalid: {exc}")
    if isinstance(dt, coverage.DiagramTypeFailure):
        raise InputError(f"diagram type invalid: {dt.to_json()}")
    return dt


def parse_diagram_types(args):
    if args.diagram_types:
        text = args.diagram_types
        try:
            if text.strip().startswith(("[", "{")):
                specs = json.loads(text)
            else:
                with open(text, encoding="utf-8") as fh:
                    specs = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read diagram types {text}: {exc}")
        if isinstance(specs, dict):
            specs = [specs]
        return [diagram_type(spec) for spec in specs]
    smalls = args.chain_smalls
    if smalls is None:
        smalls = max(args.chain_n - 1, 0)
    return [diagram_type({"chain": {"n": args.chain_n, "smalls": smalls,
                                    "dir": args.direction}})]


def resolve_coverage(C, entry, data, args, M):
    kind = args.coverage or "rule"
    if kind in ("open-covers", "closed-families"):
        top = entry.extra if entry is not None else None
        if not isinstance(top, instances.FiniteTopCorpus):
            raise InputError("topological coverages need the finite_top "
                             "corpus fixture")
        cls = coverage.OpenCoverCoverage if kind == "open-covers" else \
            coverage.ClosedFamilyCoverage
        return cls(top, kappa=args.kappa)
    if data and "coverage" in data and args.coverage is None:
        body = data["coverage"]
        if "rule" in body:
            types = [diagram_type(spec) for spec in body["rule"]["J"]]
            return coverage.RuleCoverage(
                types, resolve_class(C, entry, data, body["rule"]["M"]))
        raise InputError("coverage entry must carry a rule specification")
    return coverage.RuleCoverage(parse_diagram_types(args), M)


def resolve_object(C, oid):
    """The object named oid: its id in an explicit category, the roster
    algebra of that name in an algebra ambient."""
    for o in C.objects():
        if getattr(o, "name", o) == oid:
            return o
    raise InputError(f"unknown object {oid!r}")


def resolve_morphism(C, mid):
    if mid is None:
        raise InputError("this check needs --morphism")
    if mid not in C.morphisms():
        raise InputError(f"unknown morphism {mid!r}")
    return mid


def check_cap(cap):
    if cap < 1:
        raise InputError(f"--cap must be at least 1, got {cap}")


def check_kappa(kappa):
    if kappa < 0:
        raise InputError(f"--kappa must be at least 0, got {kappa}")


def check_max_size(max_size):
    if max_size is not None and max_size < 1:
        raise InputError(f"--max-size must be at least 1, got {max_size}")


def resolve_hom(data, spec):
    if not data or "theory" not in data:
        raise InputError("algebra checks need a theory/algebras input file")
    try:
        theory = algebra.Theory.from_json(data["theory"])
        algebras = {}
        for item in data.get("algebras", []):
            A = algebra.FinAlgebra(theory, item["name"],
                                   len(item["carrier"]), item["ops"])
            err = A.validate()
            if err is not None:
                raise InputError(f"algebra {A.name} invalid: {err}")
            algebras[A.name] = A
        t = algebra.term_from_json(data["t"]) if "t" in data \
            else theory.default_t
        if t is not None:
            for A in algebras.values():
                algebra.term_grid(A, t, ("x", "y"))
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise InputError(f"theory/algebras input invalid: "
                         f"{type(exc).__name__}: {exc}") from None
    if spec is None:
        raise InputError("this check needs --hom src>tgt:images")
    try:
        head, images = spec.split(":", 1)
        sname, tname = head.split(">", 1)
        images = tuple(int(ch) for ch in images)
    except ValueError:
        raise InputError(f"malformed hom spec {spec!r}; expected "
                         "src>tgt:images, one digit per source element")
    if sname not in algebras or tname not in algebras:
        raise InputError(f"unknown algebra in hom spec {spec!r}")
    src, tgt = algebras[sname], algebras[tname]
    if len(images) != src.size or any(y >= tgt.size for y in images):
        raise InputError(f"hom spec {spec!r} needs {src.size} images, each "
                         f"below {tgt.size}")
    h = algkit.AlgHom(src, tgt, images)
    if not h.is_valid():
        raise InputError("hom spec does not preserve the operations")
    if t is None:
        raise InputError("no binary term t: the input has no \"t\" and "
                         "its theory no default")
    return h, t, algebras, theory


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def run_check(args):
    name = args.name or args.check_flag
    if not name:
        raise InputError("no check name given")
    params = {"seed": args.seed, "cap": args.cap, "kappa": args.kappa}
    check_cap(args.cap)
    check_kappa(args.kappa)
    check_max_size(args.max_size)
    C, entry, data = load_input(args.input, args.max_size)
    # validate reads explicit tables; every other check but the two that
    # read a theory and algebras reads a category, which an algebra-only
    # file does not hold
    if (C is None and name not in ("uniformity", "monic-pullback")) or \
            (name == "validate" and not isinstance(C, FinCategory)):
        raise InputError(f"{name} reads explicit category tables, and "
                         f"{args.input} holds none")
    bindings = parse_class_bindings(args.classes)

    def cls(role, default=None):
        n = bindings.get(role, default)
        if n is None:
            raise InputError(f"check {name!r} needs --classes {role}=<name>")
        return resolve_class(C, entry, data, n)

    if name == "validate":
        # load_input has validated a file's table; a corpus fixture's own
        # tables are validated here, with no JSON round trip
        res = C if entry is None else validate_category((
            C.objects(), {m: (C.src(m), C.tgt(m)) for m in C.morphisms()},
            {o: C.identity(o) for o in C.objects()}, C.composition()))
        ok = isinstance(res, FinCategory)
        return rp.build_report(name, rp.verdict_code(ok), params, ok=ok,
                               report=None if ok else res.to_json())

    if name == "classify":
        if args.morphism:
            targets = [resolve_morphism(C, args.morphism)]
        else:
            targets = sorted(C.morphisms(), key=str)
        out = [classify_morphism(C, m).to_json() for m in targets]
        return rp.build_report(name, rp.EXIT_PASS, params,
                               morphisms=out)

    if name == "variance":
        if not data or "variance" not in data:
            raise InputError("variance check needs a variance entry "
                             "{\"cov\": [...], \"contr\": [...]}")
        v = variance.validate_variance(C, data["variance"]["cov"],
                                       data["variance"]["contr"])
        ok = isinstance(v, variance.Variance)
        return rp.build_report(name, rp.verdict_code(ok), params, ok=ok,
                               report=v.to_json())

    if name == "class-properties":
        E = cls("E", "all")
        repq = morphclass.check_class_properties(C, E)
        return rp.build_report(name, rp.verdict_code(repq.system), params,
                               report=repq.to_json())

    if name == "factorization-system":
        res = morphclass.check_factorization_system(C, cls("E"), cls("M"))
        ok = bool(res)
        return rp.build_report(name, rp.verdict_code(ok), params, ok=ok,
                               report=res.to_json())

    if name == "regular":
        res = morphclass.check_regular(C)
        return rp.build_report(name, rp.verdict_code(res.regular), params,
                               report=res.to_json())

    if name in ("protomodularity", "protomodularity-equivalent"):
        E = cls("E", "retractions")
        M = cls("M", "all")
        fn = protomod.check_protomodularity_pair \
            if name == "protomodularity" \
            else protomod.check_protomodularity_equivalent
        res = fn(C, E, M)
        return rp.build_report(name, rp.verdict_code(res.satisfied), params,
                               report=res.to_json())

    if name == "compact":
        M = cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        objects = [resolve_object(C, args.object)] if args.object else \
            sorted(C.objects(), key=str)
        out = {}
        worst = rp.EXIT_PASS
        for c in objects:
            v = coverage.decide_tau_compact(C, c, tau, cap=args.cap)
            out[str(c)] = v.to_json()
            worst = max(worst, rp.verdict_code(v.compact))
        return rp.build_report(name, worst, params, objects=out)

    if name == "coverage":
        M = cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        res = coverage.check_coverage(C, tau, cap=args.cap)
        return rp.build_report(name, rp.verdict_code(res.is_coverage),
                               params, report=res.to_json())

    if name == "subordination":
        M = cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        for c in sorted(C.objects(), key=str):
            covs, _ = tau.coverings_of(C, c, cap=args.cap)
            for cov in covs:
                ok, i = coverage.check_subordination(cov, M)
                if not ok:
                    return rp.build_report(
                        name, rp.EXIT_COUNTEREXAMPLE, params,
                        ok=False, witness={"covering": cov.to_json(),
                                           "object": str(i)})
        return rp.build_report(name, rp.EXIT_PASS, params, ok=True)

    if name == "image-compatibility":
        E, M = cls("E"), cls("M")
        tau = resolve_coverage(C, entry, data, args, M)
        f = resolve_morphism(C, args.morphism)
        res = coverage.check_image_compatibility(C, f, tau, E, M,
                                                 cap=args.cap)
        return rp.build_report(name, rp.verdict_code(res.compatible),
                               params, report=res.to_json())

    def closure_code(res):
        if "inconclusive" in res.details:
            return rp.EXIT_INCONCLUSIVE
        if not res.hypotheses_ok:
            return rp.EXIT_HYPOTHESIS
        return rp.verdict_code(res.conclusion_ok)

    if name == "closure-subobjects":
        M = cls("M", "monos")
        res = theorems.verify_closure_subobjects(
            C, parse_diagram_types(args), M, cap=args.cap)
        return rp.build_report(name, closure_code(res), params,
                               report=res.to_json())

    if name == "closure-quotients":
        E, M = cls("E", "epis"), cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        f = resolve_morphism(C, args.morphism)
        res = theorems.verify_closure_quotients(C, tau, E, M, f,
                                                cap=args.cap)
        return rp.build_report(name, closure_code(res), params,
                               report=res.to_json())

    if name == "closure-extensions":
        E, M = cls("E", "epis"), cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        f = resolve_morphism(C, args.morphism)
        phi = resolve_morphism(C, args.along)
        square = C.find_pullback(f, phi)
        if square is None:
            raise InputError("the cospan has no pullback in the category")
        res = theorems.verify_closure_extensions(C, tau, E, M, square,
                                                 cap=args.cap)
        return rp.build_report(name, closure_code(res), params,
                               report=res.to_json())

    if name == "product-closure":
        E, M = cls("E", "epis"), cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        if not args.objects or "," not in args.objects:
            raise InputError("product-closure needs --objects a,b")
        a, b = (resolve_object(C, o) for o in args.objects.split(",", 1))
        res = theorems.verify_product_closure(C, tau, E, M, a, b,
                                              cap=args.cap)
        return rp.build_report(name, closure_code(res), params,
                               report=res.to_json())

    if name == "well-behaved":
        E, M = cls("E", "epis"), cls("M", "monos")
        tau = resolve_coverage(C, entry, data, args, M)
        res = theorems.check_tau_well_behaved(C, tau, E, M, cap=args.cap)
        return rp.build_report(name, rp.verdict_code(res.well_behaved),
                               params, report=res.to_json())

    if name == "hopfian":
        M = cls("M", "monos")
        f = resolve_morphism(C, args.morphism)
        pi0 = resolve_morphism(C, args.along)
        res, chain = theorems.run_hopfian_construction(C, M, f, pi0,
                                                       N=args.truncation)
        return rp.build_report(
            name, closure_code(res), params, report=res.to_json(),
            chain=chain.to_json() if chain else None)

    if name == "mono-reflective":
        objects = [resolve_object(C, args.object)] if args.object else \
            sorted(C.objects(), key=str)
        out = {}
        worst = rp.EXIT_PASS
        for c in objects:
            res = morphclass.check_mono_reflective(C, c)
            out[str(c)] = res
            worst = max(worst, rp.verdict_code(res["reflective"]))
        return rp.build_report(name, worst, params, objects={
            k: {"reflective": v["reflective"],
                "witness": list(v["witness"]) if v["witness"] else None,
                "restricted": v["restricted"]} for k, v in out.items()})

    if name == "image-closure":
        E, M, K = cls("E", "epis"), cls("M", "monos"), cls("K")
        FS = morphclass.check_factorization_system(C, E, M)
        if not FS:
            return rp.build_report(name, rp.EXIT_HYPOTHESIS, params,
                                   report=FS.to_json())
        tau = resolve_coverage(C, entry, data, args, M)
        parts = theorems.run_image_closure_suite(C, FS, tau, K, cap=args.cap)
        oks = [parts[p].conclusion_ok for p in
               ("part1", "part2", "part3", "part4")]
        code = rp.verdict_code(None if None in oks else all(oks)) \
            if parts["hypotheses"].hypotheses_ok else rp.EXIT_HYPOTHESIS
        return rp.build_report(
            name, code, params,
            report={k: v.to_json() for k, v in parts.items()})

    if name == "uniformity":
        h, t, _, _ = resolve_hom(data, args.hom)
        res = algkit.classify_uniformity(h, t)
        return rp.build_report(name, rp.EXIT_PASS, params,
                               report=res.to_json())

    if name == "monic-pullback":
        h, t, _, _ = resolve_hom(data, args.hom)
        res = algkit.check_monic_pullback_corollary(h, t)
        code = rp.EXIT_HYPOTHESIS if res["ok"] is None else \
            rp.verdict_code(res["ok"])
        return rp.build_report(name, code, params, report=res)

    raise InputError(f"unknown check {name!r}")


# ---------------------------------------------------------------------------
# suite and entry point
# ---------------------------------------------------------------------------

def run_suite(seed=0, cap=256):
    """Fixed battery over the corpus; one canonical JSON report."""
    out = {"schema": rp.SCHEMA_VERSION, "check": "suite",
           "params": {"seed": seed, "cap": cap}}

    validations = {}
    for nm in ("poset_2chain", "diamond", "set_skeleton_2", "sub_Z8"):
        cat = instances.corpus_entry(nm).category
        validations[nm] = isinstance(validate_category(cat.to_json()),
                                     FinCategory)
    out["validations"] = validations

    sk = instances.corpus_entry("set_skeleton_2")
    proto = protomod.check_protomodularity_pair(sk.category,
                                                sk.classes["retractions"],
                                                sk.classes["all"])
    out["set2_protomodularity"] = proto.to_json()

    sub = instances.corpus_entry("sub_Z8")
    tau = coverage.RuleCoverage([coverage.build_chain_type(2, 0, "cov")],
                                "monos")
    verdicts = {}
    for c in sorted(sub.category.objects()):
        verdicts[c] = coverage.decide_tau_compact(sub.category, c, tau,
                                                  cap=cap).to_json()
    out["sub_Z8_compact"] = verdicts

    top = instances.corpus_entry("finite_top").extra
    occ = coverage.OpenCoverCoverage(top, kappa=2)
    singles = {}
    for oid in sorted(top.spaces):
        if top.npoints(oid) <= 2:
            singles[oid] = coverage.decide_tau_compact(top.category, oid, occ,
                                                       cap=cap).to_json()
    out["top_compact"] = singles

    rng_reports = []
    for s in range(seed, seed + 25):
        cat = instances.random_category(s)
        ok = isinstance(validate_category(cat.to_json()), FinCategory)
        F = instances.random_mixed_functor(s)
        rt = variance.assemble_mixed_functor(
            variance.split_mixed_functor(F)) == F
        rng_reports.append({"seed": s, "category_valid": ok,
                            "roundtrip": rt})
    out["seeded"] = rng_reports
    return out


def main(argv=None):
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "schema-version":
            rep = {"schema": rp.SCHEMA_VERSION}
            if args.format == "json":
                sys.stdout.write(rp.dumps_canonical(rep))
            else:
                print(rp.SCHEMA_VERSION)
            return 0
        if args.command == "export-corpus":
            return export_corpus(args.outdir)
        if args.command == "suite":
            check_cap(args.cap)
            rep = run_suite(args.seed, args.cap)
            if args.format == "json":
                sys.stdout.write(rp.dumps_canonical(rep))
            else:
                sys.stdout.write(rp.render_text(rep, time.time() - t0))
            return 0
        rep = run_check(args)
    except InputError as exc:
        rep = rp.build_report("input-error", rp.EXIT_INPUT, {},
                              error=str(exc))
        sys.stderr.write(rp.dumps_canonical(rep))
        return rp.EXIT_INPUT
    if args.format == "json":
        sys.stdout.write(rp.dumps_canonical(rep))
    else:
        sys.stdout.write(rp.render_text(rep, time.time() - t0))
    return rep["exit_code"]


def export_corpus(outdir):
    """Write each explicit corpus fixture and a manifest to outdir, building
    no algebra ambient; an output directory that cannot be made or written
    is an input error."""
    import os

    def write(name, obj):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(rp.dumps_canonical(obj))

    try:
        os.makedirs(outdir, exist_ok=True)
        manifest = {"schema": rp.SCHEMA_VERSION, "fixtures": {}}
        for nm in instances.corpus_names():
            if nm in instances.AMBIENT_FIXTURES:
                continue
            entry = instances.corpus_entry(nm)
            write(f"{nm}.json", {
                "category": entry.category.to_json(),
                "classes": [entry.classes[k].to_json()
                            for k in sorted(entry.classes)
                            if entry.classes[k].members is not None]})
            manifest["fixtures"][nm] = {
                "file": f"{nm}.json",
                "classes": sorted(entry.classes)}
        write("manifest.json", manifest)
    except OSError as exc:
        raise InputError(f"cannot write corpus to {outdir}: {exc}")
    print(f"wrote {len(manifest['fixtures'])} fixtures to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
