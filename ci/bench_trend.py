#!/usr/bin/env python3
"""Gate the smoke-bench trend: current BENCH_ci.json vs the previous run's.

Usage: bench_trend.py BASELINE.json CURRENT.json

Each file is the artifact the smoke-bench CI job assembles: a document
with a "benches" list of per-bench JSON objects (one per smoke bench,
see bench/BenchUtils.h JsonSummary). Two families of keys are gated,
everything else is informational:

  *seconds         wall-clock legs. Fail when the current value exceeds
                   the baseline by more than WALL_TOLERANCE (15%), with
                   an absolute floor (ABS_FLOOR_SECONDS) so micro-legs
                   whose baseline is a few milliseconds cannot fail on
                   scheduler noise.
  *kernel_seconds  a google-benchmark kernel's fastest repetition
                   (bench_micro_kernels: one SalSSA merge attempt, about
                   10 ms). Gated like the wall-clock legs at
                   WALL_TOLERANCE, without ABS_FLOOR_SECONDS: the fastest
                   of nine repetitions already sheds most scheduler noise
                   (its measured spread is recorded in CHANGES.md).
  *reduction_pct   size-reduction percentages — the paper's headline
                   metric. These are deterministic, so the tolerance is
                   a flat REDUCTION_TOLERANCE_PCT (15% relative) and any
                   drop beyond it fails.
  recall_*         candidate-discovery recall percentages (drift families
                   recovered, bench_canonical_recall). Deterministic like
                   reduction and gated the same way: lower is a
                   regression, RECALL_TOLERANCE_PCT (15% relative).

A missing baseline (first run on a branch, expired artifact) exits 0
with a notice: the gate only ever compares, it never blocks bootstrap.
Benches or keys present on one side only are reported but not failed —
adding or retiring a bench must not break the pipeline.
"""

import json
import sys

WALL_TOLERANCE = 0.15  # +15% wall-clock allowed before failing
REDUCTION_TOLERANCE_PCT = 0.15  # -15% (relative) reduction allowed
RECALL_TOLERANCE_PCT = 0.15  # -15% (relative) discovery recall allowed
ABS_FLOOR_SECONDS = 0.05  # ignore wall regressions under this baseline


def load_benches(path):
    """Returns {bench_name: {key: value}} or None when unreadable."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"notice: cannot read {path}: {e}")
        return None
    benches = {}
    for entry in doc.get("benches", []):
        name = entry.get("bench")
        if isinstance(name, str):
            benches[name] = entry
    return benches


def gated_keys(entry):
    for key, value in entry.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key.endswith("seconds"):
            yield key, float(value), "wall"
        elif key.endswith("reduction_pct"):
            yield key, float(value), "reduction"
        elif key.startswith("recall_"):
            yield key, float(value), "recall"


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline = load_benches(argv[1])
    current = load_benches(argv[2])
    if baseline is None:
        print("notice: no usable baseline — trend gate skipped (bootstrap)")
        return 0
    if current is None:
        print("error: current BENCH_ci.json unreadable")
        return 1

    failures = []
    compared = 0
    for name, entry in sorted(current.items()):
        base_entry = baseline.get(name)
        if base_entry is None:
            print(f"notice: bench '{name}' has no baseline (new bench?)")
            continue
        for key, value, kind in gated_keys(entry):
            if key not in base_entry:
                print(f"notice: {name}.{key} new-key (no baseline) — "
                      f"not gated")
                continue
            try:
                base = float(base_entry[key])
            except (TypeError, ValueError):
                # A baseline written by an older bench revision may carry a
                # non-numeric value under a now-gated key; benches evolve
                # PR over PR, so treat it like a missing baseline rather
                # than crashing the gate.
                print(f"notice: {name}.{key} baseline is non-numeric "
                      f"({base_entry[key]!r}) — not gated")
                continue
            compared += 1
            if kind == "wall":
                if (base < ABS_FLOOR_SECONDS
                        and not key.endswith("kernel_seconds")):
                    print(f"ok:     {name}.{key} {base:.6f}s -> {value:.6f}s "
                          f"(under the {ABS_FLOOR_SECONDS}s floor, "
                          f"not gated)")
                    continue
                limit = base * (1 + WALL_TOLERANCE)
                verdict = "FAIL" if value > limit else "ok"
                print(f"{verdict + ':':7} {name}.{key} {base:.6f}s -> "
                      f"{value:.6f}s (limit {limit:.6f}s)")
                if value > limit:
                    failures.append(f"{name}.{key}")
            else:  # reduction / recall: lower is worse
                tolerance = (REDUCTION_TOLERANCE_PCT if kind == "reduction"
                             else RECALL_TOLERANCE_PCT)
                limit = base * (1 - tolerance)
                verdict = "FAIL" if value < limit else "ok"
                print(f"{verdict + ':':7} {name}.{key} {base:.2f}% -> "
                      f"{value:.2f}% (floor {limit:.2f}%)")
                if value < limit:
                    failures.append(f"{name}.{key}")
        # The other direction: a gated key the baseline has but this run
        # lacks (timing disabled under TSan, a retired leg, an older bench
        # revision). Surface it as a new-key notice rather than letting it
        # read as — or turn into — a regression: a key with nothing to
        # compare against is a schema change, not a measurement.
        for key, _, _ in gated_keys(base_entry):
            if key not in entry:
                print(f"notice: {name}.{key} new-key in the baseline only "
                      f"(absent from the current run) — not gated")
    for name in sorted(set(baseline) - set(current)):
        print(f"notice: bench '{name}' vanished from the current run")

    if failures:
        print(f"\ntrend gate FAILED: {len(failures)} regression(s): "
              + ", ".join(failures))
        return 1
    print(f"\ntrend gate passed: {compared} gated value(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
