#!/usr/bin/env python3
"""Layered benchmark of fincov: end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload cli_fixtures --seed 0 \
        --seconds 45 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.md beside this
file): cli_fixtures, closure_harness.  One client in a closed loop: one
child process at a time, BLAS threads pinned to 1.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced pass and the
tracing overhead against an untraced pass of the same plan.  The line
before it ("detail ...") holds the run's stamp, the failure counts, the
tail latency and the bases of every ratio.  Every output is checked
against refs.json; inputs that differ from their pinned digests end the
run with exit code 3 and no result.
"""

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # generators import fincov

import hostspeed  # noqa: E402
import plan  # noqa: E402
import tracer  # noqa: E402

SETUP_LOADS = 3          # cold loads per run; setup_s is their median
OP_TIMEOUT_S = 150       # an operation past this is killed and failed
MAX_PASSES = 50
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class InputMismatch(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Proc:
    """Outcome of one child: wall time, its own rusage, exit code."""

    def __init__(self, wall, cpu, rss_mb, rc, timed_out, out, err):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.rc, self.timed_out, self.out, self.err = rc, timed_out, out, err


def spawn(cmd, tag, timeout=OP_TIMEOUT_S):
    """Run one child to completion and read its rusage with wait4."""
    out_path = os.path.join(OUT, f"{tag}.out")
    err_path = os.path.join(OUT, f"{tag}.err")
    timed_out = []

    def kill(proc):
        timed_out.append(True)
        proc.kill()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(timeout, kill, (proc,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        text_out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        text_err = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                proc.returncode, bool(timed_out), text_out, text_err)


def spawn_probed(cmd, tag, probes_path):
    """spawn() of a child that probes the host's speed while it works
    (hostspeed.probing); proc.scale is reference seconds per measured
    second over the child, or 1 if it wrote no probes."""
    proc = spawn(cmd, tag)
    proc.scale = 1.0
    if os.path.exists(probes_path):
        with open(probes_path, encoding="utf-8") as fh:
            # the probes are evenly spaced in time
            proc.scale = hostspeed.scale(statistics.fmean(json.load(fh)))
        os.remove(probes_path)
    return proc


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def report_digest(text):
    """Digest of a canonical report without its echoed params."""
    try:
        obj = json.loads(text)
    except ValueError:
        return "unparsable:" + plan.digest(text)
    if isinstance(obj, dict):
        obj.pop("params", None)
    return plan.digest_json(obj)


def violated_law(stderr_text):
    m = re.search(r"'law': '([a-z]+)'", stderr_text)
    return m.group(1) if m else None


def cli_outcome(key, proc):
    """rc and the checked value: report digest, or the law for broken
    tables (exit 4; the witness is not compared)."""
    if plan.expected_law(key) is not None:
        return proc.rc, violated_law(proc.err)
    text = proc.out if proc.out.strip() else proc.err
    return proc.rc, report_digest(text)


def cli_status(key, proc, refs):
    if proc.timed_out:
        return "timeout"
    if proc.rc not in (0, 1, 2, 3, 4) or "Traceback" in proc.err:
        return "crashed"
    want = refs["cli"].get(key)
    law = plan.expected_law(key)
    got = list(cli_outcome(key, proc))
    if want is None or got != want:
        return "wrong"
    if law is not None and got != [4, law]:
        return "wrong"
    return "ok"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        # reference seconds per measured second (hostspeed.py); 1 for a
        # traced CLI pass, whose children do not probe
        self.scale = 1.0
        self.latencies = []       # in reference seconds
        self.raw_latencies = []   # as measured
        self.status = []          # (key, status)
        self.traces = []          # parsed child trace dumps


def read_trace(path, op_key, spans_out):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(path)
    for op, sid, parent, name, t0, t1 in data.pop("spans"):
        spans_out.append(json.dumps(
            {"op": op_key if op_key is not None else op, "span": sid,
             "parent": parent, "name": name, "start": t0, "end": t1}))
    return data


def cli_pass(ops, traced, refs, spans_out, tag):
    p = Pass(traced)
    t0 = time.perf_counter()
    for i, key in enumerate(ops):
        argv, _ = plan.op_argv(key)
        trace_path = os.path.join(OUT, f"{tag}-{i}.trace.json")
        probes_path = os.path.join(OUT, f"{tag}-{i}.probes.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli",
                   trace_path, *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "run",
                   probes_path, *argv]
        proc = spawn_probed(cmd, f"{tag}-{i}", probes_path)
        p.cpu += proc.cpu
        p.rss_mb = max(p.rss_mb, proc.rss_mb)
        p.latencies.append(proc.wall * proc.scale)
        p.raw_latencies.append(proc.wall)
        status = cli_status(key, proc, refs)
        p.status.append((key, status))
        if status != "ok":
            sys.stderr.write(f"operation {key}: {status} (exit {proc.rc})\n"
                             f"{proc.err[-2000:]}\n")
        if traced and os.path.exists(trace_path):
            p.traces.append(read_trace(trace_path, f"{i}:{key}", spans_out))
    p.wall = time.perf_counter() - t0
    p.scale = sum(p.latencies) / sum(p.raw_latencies)
    return p


def harness_pass(hplan, traced, refs, spans_out, tag):
    p = Pass(traced)
    plan_path = os.path.join(OUT, f"{tag}.plan.json")
    out_path = os.path.join(OUT, f"{tag}.result.json")
    trace_path = os.path.join(OUT, f"{tag}.trace.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(hplan, fh)
    proc = spawn([sys.executable, os.path.join(HERE, "child.py"), "harness",
                  plan_path, out_path, trace_path if traced else "-"], tag)
    os.remove(plan_path)
    p.wall, p.cpu, p.rss_mb = proc.wall, proc.cpu, proc.rss_mb
    if proc.rc != 0 or not os.path.exists(out_path):
        status = "timeout" if proc.timed_out else "crashed"
        sys.stderr.write(f"harness pass: {status} (exit {proc.rc})\n"
                         f"{proc.err[-2000:]}\n")
        p.status.append(("harness-pass", status))
        return p
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out_path)
    check_pins(result["input_digests"], refs["harness_inputs"])
    probes = result["probes"]
    for key, dt, status, dig, j in result["instances"]:
        if status == "ok" and refs["harness"].get(key) != dig:
            status = "wrong"
        if status != "ok":
            sys.stderr.write(f"instance {key}: {status} ({dig})\n")
        # the probes just before and after the instance, and one earlier
        around = statistics.median(probes[max(0, j - 1):j + 2])
        p.latencies.append(dt * hostspeed.scale(around))
        p.raw_latencies.append(dt)
        p.status.append((key, status))
    # the probes are evenly spaced in time, so their mean is the pass's
    p.scale = hostspeed.scale(statistics.fmean(probes))
    if traced:
        p.traces.append(read_trace(trace_path, None, spans_out))
    return p


def check_pins(digests, pinned):
    bad = sorted(k for k, v in digests.items() if pinned.get(k) != v)
    if bad:
        raise InputMismatch(", ".join(bad[:10]) +
                            (f" (+{len(bad) - 10} more)" if len(bad) > 10
                             else ""))


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def prepare_inputs(workload, seed, refs, max_ops):
    """Returns (ops or harness plan, per-input digests)."""
    if workload == "closure_harness":
        hplan = plan.closure_harness_plan(seed)
        if max_ops:
            hplan["categories"] = hplan["categories"][:max_ops]
            hplan["functors"] = hplan["functors"][:max_ops]
            hplan["product_first"] = ["Z1"]
        # the instances' own inputs are pinned inside the harness child
        return hplan, {"plan": plan.digest(json.dumps(hplan,
                                                      sort_keys=True))}
    ops = plan.cli_fixtures_plan(seed)
    if max_ops:
        ops = ops[:max_ops]
    digests = {}
    os.makedirs(os.path.join(ROOT, plan.INPUT_DIR), exist_ok=True)
    for key in ops:
        _, ikey = plan.op_argv(key)
        if ikey is None or ikey in digests:
            continue
        text = plan.make_input(ikey)
        digests[ikey] = plan.digest(text)
        with open(os.path.join(ROOT, plan.input_path(ikey)), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    check_pins(digests, refs["inputs"])
    return ops, digests


def setup_spec(workload, work):
    if workload == "closure_harness":
        return {"kind": "harness", "plan": work}
    inputs = []
    for key in work:
        argv, _ = plan.op_argv(key)
        if "--input" in argv and argv[argv.index("--input") + 1] not in inputs:
            inputs.append(argv[argv.index("--input") + 1])
    return {"kind": "cli", "inputs": inputs}


def cold_load(spec_path, tag):
    probes_path = os.path.join(OUT, f"{tag}.probes.json")
    proc = spawn_probed([sys.executable, os.path.join(HERE, "child.py"),
                         "setup", spec_path, probes_path], tag, probes_path)
    if proc.rc != 0:
        raise RuntimeError(f"set-up load failed (exit {proc.rc}):\n"
                           f"{proc.err[-2000:]}")
    return proc


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in (99.9, 99.5, 99, 98, 97, 95, 90, 80, 75):
        idx = math.ceil(pct / 100 * n) - 1      # nearest rank
        if n - 1 - idx >= 10:
            return {"value": xs[idx], "percentile": pct, "samples": n}
    return {"value": None, "percentile": None, "samples": n,
            "note": "too few operations for a tail percentile"}


def layer_metrics(traced_pass, untraced_pass):
    stats = {name: [0, 0.0] for name in tracer.function_names()}
    counters = {"coverings_enumerated": 0, "functor_candidates": 0,
                "functor_accepted": 0}
    class_pairs = 0
    dropped = 0
    for data in traced_pass.traces:
        for name, (calls, self_s) in data["stats"].items():
            stats[name][0] += calls
            stats[name][1] += self_s
        for k in counters:
            counters[k] += data["counters"][k]
        class_pairs += data["class_pairs"]
        dropped += data["dropped_spans"]
    metrics = {}
    for name, (calls, self_s) in stats.items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}

    def ratio(num, den):
        return num / den if den else 0.0

    pb = stats["fincat.FinCategory.find_pullback"][0]
    spans_calls = stats["kernels.commuting_spans"][0]
    cp_calls = stats["morphclass.check_class_properties"][0]
    metrics["fincat.pullback_hit_ratio"] = {
        "value": 1.0 - ratio(spans_calls, pb) if pb else 0.0,
        "unit": "ratio"}
    metrics["coverage.coverings_enumerated"] = {
        "value": counters["coverings_enumerated"], "unit": "count"}
    metrics["coverage.functor_accept_ratio"] = {
        "value": ratio(counters["functor_accepted"],
                       counters["functor_candidates"]), "unit": "ratio"}
    metrics["morphclass.class_props_repeat_ratio"] = {
        "value": ratio(cp_calls, class_pairs), "unit": "ratio"}
    metrics["trace_overhead_frac"] = {
        "value": traced_pass.wall / untraced_pass.wall - 1.0,
        "unit": "fraction"}
    bases = {
        "fincat.pullback_hit_ratio": {
            "find_pullback_calls": pb, "commuting_spans_calls": spans_calls},
        "coverage.functor_accept_ratio": {
            "accepted": counters["functor_accepted"],
            "candidates": counters["functor_candidates"]},
        "morphclass.class_props_repeat_ratio": {
            "calls": cp_calls, "distinct_pairs": class_pairs},
        "trace_overhead_frac": {"traced_wall_s": traced_pass.wall,
                                "untraced_wall_s": untraced_pass.wall},
        "dropped_spans": dropped,
    }
    return metrics, bases


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "fincov", "cli.py")):
        sys.stderr.write("fincov sources not found under src/; run from a "
                         "checkout of the repository\n")
        return 2
    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work, input_digests = prepare_inputs(args.workload, args.seed, refs,
                                         args.max_ops)
    inputs_digest = plan.digest(json.dumps(input_digests, sort_keys=True))
    pinned = refs.get("seed_inputs", {}).get(args.workload, {})
    if str(args.seed) in pinned and pinned[str(args.seed)] != inputs_digest:
        raise InputMismatch(f"inputs of seed {args.seed}")

    spec_path = os.path.join(OUT, f"{tag}.setup.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(setup_spec(args.workload, work), fh)
    # an untimed import compiles the bytecode and warms the file cache
    warm = spawn([sys.executable, os.path.join(HERE, "child.py"), "stamp"],
                 f"{tag}-stamp")
    if warm.rc != 0:
        raise RuntimeError(f"importing fincov failed:\n{warm.err[-2000:]}")
    loads = []
    if not args.trace:
        loads = [cold_load(spec_path, f"{tag}-setup{i}")
                 for i in range(SETUP_LOADS)]
    os.remove(spec_path)

    spans = []

    def one_pass(traced, i):
        if args.workload == "closure_harness":
            return harness_pass(work, traced, refs, spans, f"{tag}-p{i}")
        return cli_pass(work, traced, refs, spans, f"{tag}-p{i}")

    passes = []
    t0 = time.perf_counter()
    if args.trace:
        order = (False, True) if args.seed % 2 == 0 else (True, False)
        passes = [one_pass(traced, i) for i, traced in enumerate(order)]
    else:
        # another pass starts while it would end at most half a pass
        # past --seconds, so a run measures about --seconds of work
        while len(passes) < MAX_PASSES:
            passes.append(one_pass(False, len(passes)))
            if time.perf_counter() - t0 + passes[-1].wall / 2 > args.seconds:
                break
    measured_s = time.perf_counter() - t0

    statuses = [s for p in passes for _, s in p.status]
    counts = {k: statuses.count(k) for k in ("timeout", "crashed", "wrong")}
    attempted = len(statuses)
    failed = sum(counts.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": {**json.loads(warm.out.strip().splitlines()[-1]),
                  "nproc": len(os.sched_getaffinity(0)),
                  "git_commit": git_commit(),
                  "fincov_pure": bool(os.environ.get("FINCOV_PURE"))},
        "passes": len(passes), "measured_s": measured_s,
        "inputs_digest": inputs_digest,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failed_counts": counts, "attempted": attempted,
    }
    if args.trace:
        untraced = next(p for p in passes if not p.traced)
        traced = next(p for p in passes if p.traced)
        metrics, detail["ratio_bases"] = layer_metrics(traced, untraced)
        spans_path = os.path.join(OUT, f"trace-{tag}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(spans) + ("\n" if spans else ""))
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        detail["spans"] = len(spans)
    else:
        # Pass times are scaled to reference seconds (hostspeed.py).  Each
        # is a per-pass value and the run reports its median over passes,
        # so a burst of host speed the probes miss moves at most one pass.
        # A harness pass that crashed has no instance latencies.
        def pass_times(raw):
            rows = []
            for p in passes:
                s = 1.0 if raw else p.scale
                lat = p.raw_latencies if raw else p.latencies
                rows.append({"wall_s": p.wall * s, "cpu_s": p.cpu * s,
                             "op_p50_s": statistics.median(lat or
                                                           [p.wall * s])})
            return {k: statistics.median(r[k] for r in rows)
                    for k in rows[0]}

        setup_samples = [x.wall * x.scale for x in loads]
        metrics = {k: {"value": v, "unit": "s"} for k, v in
                   {"setup_s": statistics.median(setup_samples),
                    **pass_times(raw=False)}.items()}
        metrics["peak_rss_mb"] = {"value": max(p.rss_mb for p in passes),
                                  "unit": "MB"}
        lat = [x for p in passes for x in p.latencies] or \
            [p.wall * p.scale for p in passes]
        detail["as_measured"] = {
            "setup_s": statistics.median(x.wall for x in loads),
            **pass_times(raw=True)}
        detail["host_scale"] = [p.scale for p in passes]
        detail["setup_samples_s"] = setup_samples
        detail["op_tail_s"] = tail(lat)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--refs", default=os.path.join(HERE, "refs.json"),
                    help="correctness references (default: refs.json)")
    ap.add_argument("--max-ops", type=int, default=0,
                    help="cut each pass to its first N operations "
                         "(smoke check only)")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args)
    except InputMismatch as exc:
        sys.stderr.write(f"input mismatch: {exc}; the generated inputs "
                         "differ from the digests pinned in refs.json, so "
                         "timings are not comparable\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
