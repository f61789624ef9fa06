#!/usr/bin/env python3
"""Compare a freshly produced BENCH_*.json against the checked-in one.

Usage: check_bench_regression.py <checked-in.json> <fresh.json> [...]

Absolute throughput numbers are host-dependent, so CI compares the
*within-run* figures instead:

  * every "speedup" field (optimized vs. legacy implementation measured in
    the same process seconds apart) must not regress by more than
    REGRESSION_TOLERANCE against the checked-in value;
  * every "*allocs*" field that is (near-)zero in the checked-in file must
    stay (near-)zero — the zero-steady-state-allocation property is exact,
    not statistical.
"""

import json
import sys

REGRESSION_TOLERANCE = 0.30  # fail on >30% drop of any speedup ratio
ZERO_ALLOCS = 0.001          # "zero" allowing for one-off warmup noise

# Sections a bench must emit: their "speedup" / "*allocs*" leaves are what
# the rules above gate, so silently dropping the section (e.g. by
# regenerating the JSON with an older binary) must itself be a failure.
REQUIRED_SECTIONS = {
    "micro_memsys": ("sim", "hier", "container"),
    "micro_trace": ("trace",),
}

# Absolute floors on top of the relative tolerance: the trace front end's
# whole point is that fiber-free replay beats fiber-mode throughput, so the
# replay-vs-fiber ratio may never fall under 1.10 regardless of what the
# checked-in file says.
SPEEDUP_HARD_FLOORS = {
    "micro_trace.trace.speedup": 1.10,
}


def walk(ref, new, path, failures):
    if isinstance(ref, dict):
        if not isinstance(new, dict):
            failures.append(f"{path}: shape mismatch")
            return
        for key, ref_val in ref.items():
            if key not in new:
                failures.append(f"{path}.{key}: missing from fresh output")
                continue
            walk(ref_val, new[key], f"{path}.{key}", failures)
        return
    if not isinstance(ref, (int, float)) or isinstance(ref, bool):
        return
    leaf = path.rsplit(".", 1)[-1]
    if leaf == "speedup":
        floor = max(ref * (1.0 - REGRESSION_TOLERANCE),
                    SPEEDUP_HARD_FLOORS.get(path, 0.0))
        status = "ok" if new >= floor else "FAIL"
        print(f"  {status} {path}: {new:.2f} vs checked-in {ref:.2f} "
              f"(floor {floor:.2f})")
        if new < floor:
            failures.append(f"{path}: {new:.2f} < floor {floor:.2f}")
    elif "allocs" in leaf and ref <= ZERO_ALLOCS:
        status = "ok" if new <= ZERO_ALLOCS else "FAIL"
        print(f"  {status} {path}: {new:.4f} (must stay <= {ZERO_ALLOCS})")
        if new > ZERO_ALLOCS:
            failures.append(f"{path}: {new:.4f} allocations, expected zero")


def main(argv):
    args = argv[1:]
    if len(args) < 2 or len(args) % 2 != 0:
        print(__doc__)
        return 2
    failures = []
    for ref_path, new_path in zip(args[0::2], args[1::2]):
        with open(ref_path) as f:
            # The bench writers append a trailing comment line; strip it.
            ref = json.loads("".join(l for l in f if not l.startswith("//")))
        with open(new_path) as f:
            new = json.loads("".join(l for l in f if not l.startswith("//")))
        name = ref.get("bench", ref_path)
        if ref.get("bench") != new.get("bench"):
            failures.append(f"{ref_path} vs {new_path}: different benches")
            continue
        print(f"{name}:")
        for section in REQUIRED_SECTIONS.get(name, ()):
            for side, data in (("checked-in", ref), ("fresh", new)):
                if section not in data:
                    failures.append(
                        f"{name}.{section}: required section missing from "
                        f"{side} output")
        walk(ref, new, name, failures)
    if failures:
        print("bench regression: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
