"""Seeded operation plans and the fixed pools they draw from.

A plan is what one pass of a workload runs.  The benchmark seed picks
operations from fixed pools; every pool entry has a correctness reference
in ``refs.json``, so any seed can be checked.  Inputs that the program
generates (random categories, broken tables, mixed functors) are pinned
by digest there as well.
"""

import hashlib
import json
import os
import random

WORKLOADS = ("cli_fixtures", "closure_harness")

# --- cli_fixtures: corpus operations ---------------------------------------

# The check commands of the README, verbatim apart from --format json.
README_OPS = {
    "readme:protomodularity": [
        "check", "protomodularity", "--input", "corpus:set_skeleton_2",
        "--classes", "E=retractions,M=all", "--format", "json"],
    "readme:compact-top": [
        "check", "compact", "--input", "corpus:finite_top", "--coverage",
        "open-covers", "--kappa", "2", "--object", "X1.0", "--format", "json"],
    "readme:compact-chain": [
        "check", "compact", "--input", "corpus:sub_Z8", "--classes",
        "M=monos", "--chain-n", "2", "--chain-smalls", "0", "--format",
        "json"],
    "readme:closure-extensions": [
        "check", "closure-extensions", "--input", "corpus:set_skeleton_2",
        "--classes", "E=retractions,M=all", "--chain-n", "1",
        "--chain-smalls", "1", "--morphism", "f2>1:00", "--along", "f1>1:0",
        "--format", "json"],
    "readme:suite": ["suite", "--seed", "7", "--format", "json"],
}

SMALL_FIXTURES = (
    "set_skeleton_2", "set_skeleton_3", "sub_Z8", "sub_Z4", "poset_2chain",
    "poset_3chain", "poset_4chain", "diamond", "group_cat_Z2",
    "group_cat_Z4", "group_cat_V4", "group_cat_Z8", "group_cat_Z4xZ2",
    "group_cat_Z2^3", "group_cat_D4", "group_cat_Q8")

# A cospan with a pullback per fixture (least in sorted order, neither leg
# an identity); fixtures without one get no closure-extensions operation.
EXTENSION_COSPANS = {
    "set_skeleton_2": ("f0>1:", "f2>1:00"),
    "set_skeleton_3": ("f0>1:", "f2>1:00"),
    "sub_Z8": ("u0246<u01234567", "u04<u01234567"),
    "sub_Z4": ("u02<u0123", "u0<u0123"),
    "poset_3chain": ("o0<o2", "o1<o2"),
    "poset_4chain": ("o0<o2", "o1<o2"),
    "diamond": ("o0<o1", "oa<o1"),
    "group_cat_Z4": ("g1", "g2"),
    "group_cat_V4": ("g1", "g2"),
    "group_cat_Z8": ("g1", "g2"),
    "group_cat_Z4xZ2": ("g1", "g2"),
    "group_cat_Z2^3": ("g1", "g2"),
    "group_cat_D4": ("g1", "g2"),
    "group_cat_Q8": ("g1", "g2"),
}

# Check kind -> extra flags, shared by corpus and file inputs.
CHECK_FLAGS = {
    "protomodularity": ["--classes", "E=retractions,M=all"],
    "compact": ["--classes", "M=monos", "--chain-n", "2",
                "--chain-smalls", "1"],
    "classify": [],
    "regular": [],
    "factorization-system": ["--classes", "E=epis,M=monos"],
    "coverage": ["--classes", "M=monos", "--chain-n", "1",
                 "--chain-smalls", "0"],
    "mono-reflective": [],
}


def _check_argv(kind, spec):
    return ["check", kind, "--input", spec, *CHECK_FLAGS[kind],
            "--format", "json"]


def corpus_pool():
    """key -> argv for every corpus operation a plan may choose."""
    pool = dict(README_OPS)
    for fx in SMALL_FIXTURES:
        for kind in CHECK_FLAGS:
            pool[f"corpus:{fx}:{kind}"] = _check_argv(kind, f"corpus:{fx}")
        if fx in EXTENSION_COSPANS:
            f, phi = EXTENSION_COSPANS[fx]
            pool[f"corpus:{fx}:closure-extensions"] = [
                "check", "closure-extensions", "--input", f"corpus:{fx}",
                "--classes", "E=retractions,M=all", "--chain-n", "1",
                "--chain-smalls", "1", "--morphism", f, "--along", phi,
                "--format", "json"]
    return pool


# --- cli_fixtures: file inputs ----------------------------------------------

RANDOM_POOL = 64           # random_category seeds 0..63
FILE_KINDS = ("validate",) + tuple(CHECK_FLAGS)
EXPORTED = ("set_skeleton_2", "poset_3chain", "diamond", "sub_Z8",
            "group_cat_V4", "group_cat_Q8")
# breakage -> the category law validation must report (exit code 4)
BREAKAGES = {"drop": "composability", "spurious": "composability",
             "dangling": "structure", "identity": "identity"}

INPUT_DIR = os.path.join(".bench_out", "in")


def _file_argv(kind, path):
    if kind == "validate":
        return ["check", "validate", "--input", path, "--format", "json"]
    return _check_argv(kind, path)


def file_pool():
    """key -> (input key, argv) for file operations."""
    pool = {}
    for s in range(RANDOM_POOL):
        path = input_path(f"rand-{s}")
        for kind in FILE_KINDS:
            pool[f"rand:{s}:{kind}"] = (f"rand-{s}", _file_argv(kind, path))
        for brk in BREAKAGES:
            ikey = f"broken-{s}-{brk}"
            pool[f"broken:{s}:{brk}"] = (
                ikey, _file_argv("validate", input_path(ikey)))
    for fx in EXPORTED:
        path = input_path(f"export-{fx}")
        for kind in FILE_KINDS:
            pool[f"export:{fx}:{kind}"] = (f"export-{fx}",
                                           _file_argv(kind, path))
    return pool


def input_path(ikey):
    return os.path.join(INPUT_DIR, ikey.replace("^", "_") + ".json")


def _exported_category(fx):
    from fincov import instances as ins
    if fx == "set_skeleton_2":
        sk = ins.set_skeleton(2, name="set2")
        return sk.category, [sk.injections(), sk.surjections()]
    builders = {
        "poset_3chain": lambda: ins.chain_poset(2, name="poset_3chain"),
        "diamond": ins.diamond_lattice,
        "sub_Z8": lambda: ins.subgroup_lattice_poset(ins.cyclic_group(8),
                                                     name="sub_Z8"),
        "group_cat_V4": lambda: ins.group_category(ins.klein_four_group()),
        "group_cat_Q8": lambda: ins.group_category(ins.quaternion_group()),
    }
    return builders[fx](), []


def _break_table(body, brk, rng):
    """Violate one law of a valid category table (the JSON schema form)."""
    ids = set(body["identities"].values())
    comp = body["composition"]
    ends = {m["id"]: (m["src"], m["tgt"]) for m in body["morphisms"]}
    pairs = sorted((g, f) for g in ends for f in ends
                   if ends[f][1] != ends[g][0])
    if brk == "spurious" and pairs:
        g, f = rng.choice(pairs)
        comp.append([g, f, f])
    elif brk in ("drop", "spurious"):
        # with every pair composable a spurious entry is impossible, so
        # both kinds drop an entry instead
        plain = [e for e in comp if e[0] not in ids and e[1] not in ids]
        victim = rng.choice(plain or comp)
        body["composition"] = [e for e in comp if e is not victim]
    elif brk == "dangling":
        victim = rng.choice(body["morphisms"])
        victim["tgt"] = "missing_object"
    elif brk == "identity":
        # id . g := e for a non-identity endomorphism g of a group object
        ident = body["identities"]["*"]
        g = rng.choice(sorted(m["id"] for m in body["morphisms"]
                              if m["id"] != ident))
        for entry in comp:
            if entry[0] == ident and entry[1] == g:
                entry[2] = ident
    return body


def make_input(ikey):
    """Serialized input file content for an input key (deterministic)."""
    from fincov import instances as ins
    kind, _, rest = ikey.partition("-")
    if kind == "rand":
        payload = {"category": ins.random_category(int(rest)).to_json()}
    elif kind == "export":
        cat, classes = _exported_category(rest)
        payload = {"category": cat.to_json(),
                   "classes": [c.to_json() for c in classes]}
    elif kind == "broken":
        s, brk = rest.split("-", 1)
        rng = random.Random(f"broken:{s}:{brk}")
        if brk == "identity":
            base = ins.group_category(ins.cyclic_group(2 + int(s) % 4))
        else:
            base = ins.random_category(int(s))
        payload = {"category": _break_table(base.to_json(), brk, rng)}
    else:
        raise ValueError(f"unknown input key {ikey!r}")
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_json(obj):
    return digest(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# --- plans --------------------------------------------------------------------

def cli_fixtures_plan(seed):
    """One README command, two seeded (check, fixture) operations and one
    file operation; the order is shuffled."""
    rng = random.Random(f"cli_fixtures:{seed}")
    cpool = corpus_pool()
    combos = sorted(k for k in cpool if k.startswith("corpus:"))
    ops = [rng.choice(sorted(README_OPS))] + rng.sample(combos, 2)
    family = rng.choice(("rand", "export", "broken"))
    fpool = sorted(k for k in file_pool() if k.startswith(family + ":"))
    ops.append(rng.choice(fpool))
    rng.shuffle(ops)
    return ops


def op_argv(key):
    """argv and input key (or None) of a CLI operation key."""
    cpool = corpus_pool()
    if key in cpool:
        return cpool[key], None
    ikey, argv = file_pool()[key]
    return argv, ikey


def expected_law(key):
    if key.startswith("broken:"):
        return BREAKAGES[key.rsplit(":", 1)[1]]
    return None


# --- closure_harness ----------------------------------------------------------

HARNESS_CATEGORIES = 64        # random_category(s, (4, 12)), s < 64
HARNESS_FUNCTOR_POOL = 400     # random_mixed_functor(s), s < 400
HARNESS_FUNCTORS = 100
# product closure over the abelian-groups ambient: a in these, b any
PRODUCT_FIRST_FACTORS = ("Z1", "Z2")


def closure_harness_plan(seed):
    """All 64 categories in a seeded order, and a seeded quarter of the
    functor pool.

    Instance latencies spread over two orders of magnitude around their
    median, so a seeded choice of categories moved op_p50_s by a third
    between seeds; a fixed category set keeps it comparable.
    """
    rng = random.Random(f"closure_harness:{seed}")
    categories = list(range(HARNESS_CATEGORIES))
    rng.shuffle(categories)
    return {
        "categories": categories,
        "functors": sorted(rng.sample(range(HARNESS_FUNCTOR_POOL),
                                      HARNESS_FUNCTORS)),
        "product_first": list(PRODUCT_FIRST_FACTORS),
    }
