#!/usr/bin/env python3
"""Compare two google-benchmark JSON files benchmark-by-benchmark, or two
tsnfta_sim manifests field by field.

Usage:
    tools/compare_benches.py BASELINE.json CANDIDATE.json [--threshold PCT]
                             [--gate PREFIX[,PREFIX...]]
    tools/compare_benches.py --manifests PARENT.json CHANGE.json

Prints a per-benchmark table of real-time deltas (positive = candidate is
slower). Exits non-zero when any benchmark regressed by more than
--threshold percent (default 10), so CI can flag perf drift; ungated
benchmarks present in only one file are reported but never fail the
comparison.

With --gate, only benchmarks whose name starts with one of the given
prefixes can fail the run -- the blocking CI job pins the named hot
paths while the rest of the table stays informational. A gate prefix
that matches nothing in the baseline is itself an error (a renamed
benchmark must not silently un-gate), and a gated benchmark that is
present in the baseline but missing from the candidate run is an
explicit gate failure (a deleted or crashed benchmark must not pass
by absence).

With --manifests, the two files are run manifests (tsnfta_sim manifest=)
of the same command line, and a speed-only change must leave them equal:
every field is compared exactly, recursively, except the top-level
git_sha. Each path that differs is printed, and any difference exits 1.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        # Aggregate runs (mean/median/stddev) would double-count; keep the
        # plain iteration entries only.
        if b.get("run_type", "iteration") != "iteration":
            continue
        out[b["name"]] = (float(b["real_time"]), b.get("time_unit", "ns"))
    return out


def diff_json(parent, change, path, out):
    """Append one line per differing path between two decoded JSON values."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(set(parent) | set(change)):
            sub = f"{path}[{json.dumps(key)}]"
            if key not in change:
                out.append(f"{sub}: only in parent ({json.dumps(parent[key])})")
            elif key not in parent:
                out.append(f"{sub}: only in change ({json.dumps(change[key])})")
            else:
                diff_json(parent[key], change[key], sub, out)
    elif isinstance(parent, list) and isinstance(change, list):
        for i in range(max(len(parent), len(change))):
            sub = f"{path}[{i}]"
            if i >= len(change):
                out.append(f"{sub}: only in parent ({json.dumps(parent[i])})")
            elif i >= len(parent):
                out.append(f"{sub}: only in change ({json.dumps(change[i])})")
            else:
                diff_json(parent[i], change[i], sub, out)
    elif type(parent) is not type(change) or parent != change:
        out.append(f"{path}: {json.dumps(parent)} -> {json.dumps(change)}")


def compare_manifests(parent_path, change_path):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    for doc in (parent, change):
        if isinstance(doc, dict):
            doc.pop("git_sha", None)
    diffs = []
    diff_json(parent, change, "", diffs)
    for line in diffs:
        print(line)
    if diffs:
        print(f"\n{len(diffs)} manifest field(s) differ", file=sys.stderr)
        return 1
    print("manifests equal (git_sha ignored)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when any benchmark is more than PCT%% slower (default 10)",
    )
    ap.add_argument(
        "--gate",
        metavar="PREFIX[,PREFIX...]",
        help="only benchmarks starting with one of these prefixes can fail",
    )
    ap.add_argument(
        "--manifests",
        action="store_true",
        help="compare two tsnfta_sim manifests exactly instead of benchmarks",
    )
    args = ap.parse_args()
    if args.manifests:
        return compare_manifests(args.baseline, args.candidate)

    base = load(args.baseline)
    cand = load(args.candidate)

    gates = [g for g in (args.gate or "").split(",") if g]
    for g in gates:
        if not any(name.startswith(g) for name in base):
            print(f"gate prefix '{g}' matches no baseline benchmark", file=sys.stderr)
            return 2

    def gated(name):
        return not gates or any(name.startswith(g) for g in gates)

    names = sorted(set(base) | set(cand))
    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  {'delta':>8}")

    regressions = []
    missing = []
    for name in names:
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  {cand[name][0]:>12.1f}  {'new':>8}")
            continue
        if name not in cand:
            print(f"{name:<{width}}  {base[name][0]:>12.1f}  {'-':>12}  {'gone':>8}")
            if gates and gated(name):
                missing.append(name)
            continue
        b, bu = base[name]
        c, cu = cand[name]
        if bu != cu:
            print(f"{name:<{width}}  unit mismatch ({bu} vs {cu})", file=sys.stderr)
            if gated(name):
                regressions.append((name, float("inf")))
            continue
        delta = (c - b) / b * 100.0 if b else 0.0
        marker = "" if gated(name) else "  (ungated)"
        print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  {delta:>+7.1f}%{marker}")
        if delta > args.threshold and gated(name):
            regressions.append((name, delta))

    if missing:
        print(
            f"\n{len(missing)} gated benchmark(s) missing from the candidate "
            "run (deleted, renamed, or the binary crashed before reaching "
            "them) -- a gated benchmark must fail loudly, not pass by "
            "absence:",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  {name}: present in baseline, absent in candidate", file=sys.stderr)
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.1f}%:",
            file=sys.stderr,
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
    if missing or regressions:
        return 1
    print(f"\nno regression beyond {args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
