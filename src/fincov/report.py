"""Deterministic report assembly.

JSON reports are canonical: sorted keys, two-space indent, trailing
newline, and no wall-clock fields, so identical inputs, flags and seeds
produce byte-identical output.  Timing goes to the text format only.
"""

import json

SCHEMA_VERSION = "1.0.0"

# exit-code contract
EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4


def verdict_code(v):
    """Exit code of a decided verdict: True passes, False is a
    counterexample and None was cut short by a cap."""
    if v is None:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if v else EXIT_COUNTEREXAMPLE


def build_report(check, exit_code, params=None, **body):
    rep = {"schema": SCHEMA_VERSION, "check": check, "exit_code": exit_code,
           "params": params or {}}
    rep.update(body)
    return rep


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_text(rep, wall_time=None):
    lines = [f"check: {rep['check']}  (schema {rep['schema']})"]
    for k in sorted(rep):
        if k in ("check", "schema"):
            continue
        lines.append(f"  {k}: {json.dumps(rep[k], sort_keys=True)}")
    if wall_time is not None:
        lines.append(f"  wall_time_s: {wall_time:.3f}")
    return "\n".join(lines) + "\n"
