#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json files and flag regressions.

The bench binaries write one BENCH_<figure>.json per run (see
bench_util.h). This script compares a baseline set against a current
set, prints per-figure deltas, and exits non-zero when a regression
crosses the threshold — the check that turns the BENCH files from a
write-only record into a perf trajectory.

Usage:
    compare_bench.py BASELINE_DIR CURRENT_DIR [options]

    --time-threshold=R   fail when a timing field grows more than R×
                         (default 1.5; timings are inherently noisy, so
                         the default is deliberately loose)
    --count-tolerance=F  allowed relative drift for structural fields
                         (default 0.0 — counts are deterministic for a
                         fixed generator seed and must match exactly)
    --ignore-time        skip timing fields entirely (for CI, where
                         machine speed differs from the baseline host)
    --strict             also fail when a baseline figure or row is
                         missing from the current set
    --self-test          run the comparator's own checks and exit

Hosts: every BENCH file carries a top-level `host` object (nproc,
compiler, build_type, commit; see bench_util.h). Timings from two
different machines or builds say nothing about the change between
them, so without --ignore-time the script refuses (exit 2) when a
compared figure's hosts differ in nproc, compiler or build_type, or
either file has no `host`. The commit is expected to differ.

Field classification: a numeric field whose name ends in `_seconds`,
`_s`, or `_ms` (or equals `seconds`), or is a ratio of two timings
(`speedup` / `*_speedup`), is a timing; every other numeric field is
structural. Rows are matched within a figure by their string
fields (corpus, query, section, ...) plus an occurrence counter, since
benches repeat a string combination across numeric sweeps and emit
rows in deterministic order.
"""

import json
import os
import sys

TIME_SUFFIXES = ("_seconds", "_s", "_ms")
# The `host` fields that must agree before timings are compared.
HOST_KEYS = ("nproc", "compiler", "build_type")


def is_time_field(name):
    # `speedup` fields are ratios of two timings — as noisy as the
    # timings themselves, never exact-matchable.
    return (name in ("seconds", "speedup")
            or name.endswith(TIME_SUFFIXES)
            or name.endswith("_speedup"))


def keyed_rows(rows):
    """Maps each row to a unique key: its string-valued fields, plus an
    occurrence counter since benches legitimately repeat a (corpus,
    query, ...) combination across numeric sweeps (fig5 sweeps depth,
    fig7 numbers its queries). Row emission order is deterministic, so
    occurrence numbers line up across runs."""
    seen = {}
    keyed = {}
    for row in rows:
        parts = [f"{k}={v}" for k, v in sorted(row.items())
                 if isinstance(v, str)]
        base = "|".join(parts) if parts else "row"
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        # Always suffixed, so a run that *gains* a duplicate cannot
        # silently re-pair rows.
        keyed[f"{base}#{occurrence}"] = row
    return keyed


def load_set(directory):
    figures = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as f:
                figures[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            print(f"WARNING: cannot read {path}: {error}")
    return figures


def host_mismatch(base, cur):
    """Why the timings of two runs of a figure are not comparable, or
    None when their hosts agree."""
    base_host, cur_host = base.get("host"), cur.get("host")
    if not isinstance(base_host, dict) or not isinstance(cur_host, dict):
        which = "baseline" if not isinstance(base_host, dict) else "current"
        return f"the {which} file names no host"
    for key in HOST_KEYS:
        if base_host.get(key) != cur_host.get(key):
            return (f"hosts differ in {key} (baseline "
                    f"{base_host.get(key)!r}, current {cur_host.get(key)!r})")
    return None


def compare_figure(name, base, cur, opts):
    """Returns (regressions, lines) for one figure."""
    regressions = []
    lines = []
    base_rows = keyed_rows(base.get("rows", []))
    cur_rows = keyed_rows(cur.get("rows", []))

    if base.get("scale") != cur.get("scale") or \
       base.get("seed") != cur.get("seed"):
        lines.append(f"  NOTE: scale/seed differ "
                     f"(baseline scale={base.get('scale')} "
                     f"seed={base.get('seed')}, current "
                     f"scale={cur.get('scale')} seed={cur.get('seed')}); "
                     f"structural comparison skipped")
        return regressions, lines

    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        if cur_row is None:
            lines.append(f"  MISSING row: {key}")
            if opts["strict"]:
                regressions.append(f"{name}: missing row {key}")
            continue
        for field, base_value in base_row.items():
            if not isinstance(base_value, (int, float)) or \
               isinstance(base_value, bool):
                continue
            cur_value = cur_row.get(field)
            if not isinstance(cur_value, (int, float)):
                continue
            if is_time_field(field):
                if opts["ignore_time"]:
                    continue
                if base_value <= 0:
                    continue
                ratio = cur_value / base_value
                marker = ""
                if ratio > opts["time_threshold"]:
                    marker = "  <-- REGRESSION"
                    regressions.append(
                        f"{name}: {key} {field} "
                        f"{base_value:.6g} -> {cur_value:.6g} "
                        f"({ratio:.2f}x)")
                if abs(ratio - 1.0) > 0.05 or marker:
                    lines.append(f"  {key} {field}: {base_value:.6g} -> "
                                 f"{cur_value:.6g} ({ratio:+.1%} vs "
                                 f"baseline){marker}")
            else:
                if base_value == cur_value:
                    continue
                drift = (abs(cur_value - base_value) / abs(base_value)
                         if base_value else float("inf"))
                line = (f"  {key} {field}: {base_value} -> {cur_value}")
                if drift > opts["count_tolerance"]:
                    lines.append(line + "  <-- STRUCTURAL CHANGE")
                    regressions.append(
                        f"{name}: {key} {field} {base_value} -> "
                        f"{cur_value}")
                else:
                    lines.append(line)
    return regressions, lines


def main(argv):
    opts = {"time_threshold": 1.5, "count_tolerance": 0.0,
            "ignore_time": False, "strict": False}
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--time-threshold="):
            opts["time_threshold"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--count-tolerance="):
            opts["count_tolerance"] = float(arg.split("=", 1)[1])
        elif arg == "--ignore-time":
            opts["ignore_time"] = True
        elif arg == "--strict":
            opts["strict"] = True
        elif arg == "--self-test":
            return self_test()
        elif arg in ("--help", "-h"):
            print(__doc__)
            return 0
        else:
            positional.append(arg)
    if len(positional) != 2:
        print(__doc__)
        return 2

    baseline_dir, current_dir = positional
    baseline = load_set(baseline_dir)
    current = load_set(current_dir)
    if not baseline:
        print(f"no BENCH_*.json files in baseline dir {baseline_dir}")
        return 2

    if not opts["ignore_time"]:
        refusals = []
        for name, base in baseline.items():
            why = name in current and host_mismatch(base, current[name])
            if why:
                refusals.append(f"{name}: {why}")
        if refusals:
            print("refusing to compare timing fields:")
            for refusal in refusals:
                print(f"  {refusal}")
            print("rerun both sets on one host, or pass --ignore-time "
                  "for a structural comparison")
            return 2

    all_regressions = []
    for name, base in baseline.items():
        cur = current.get(name)
        print(name)
        if cur is None:
            print("  not present in current set")
            if opts["strict"]:
                all_regressions.append(f"{name}: missing from current set")
            continue
        regressions, lines = compare_figure(name, base, cur, opts)
        for line in lines:
            print(line)
        if not lines:
            print("  no deltas")
        all_regressions.extend(regressions)

    extra = sorted(set(current) - set(baseline))
    if extra:
        print("figures only in current set (no baseline yet): "
              + ", ".join(extra))

    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s):")
        for regression in all_regressions:
            print(f"  {regression}")
        return 1
    print("\nno regressions")
    return 0


def self_test():
    """Checks the host gate on generated BENCH files; returns 0 when
    every case behaves, 1 otherwise."""
    import contextlib
    import io
    import tempfile

    host = {"nproc": 4, "compiler": "GNU 12.2.0", "build_type": "Release",
            "commit": "aaaa"}
    other = dict(host, nproc=8)
    later = dict(host, commit="bbbb")

    def figure(host_object, seconds):
        doc = {"bench": "t", "scale": 1, "seed": 42,
               "rows": [{"corpus": "c", "vertices": 10,
                         "seconds": seconds}]}
        if host_object is not None:
            doc["host"] = host_object
        return doc

    cases = [
        # (name, baseline host, current host, current seconds against
        #  the baseline's 1.0, extra args, want exit)
        ("same host, slower", host, later, 10.0, [], 1),
        ("same host, same speed", host, later, 1.0, [], 0),
        ("hosts differ", host, other, 1.0, [], 2),
        ("baseline has no host", None, host, 1.0, [], 2),
        ("current has no host", host, None, 1.0, [], 2),
        ("hosts differ, --ignore-time", host, other, 10.0,
         ["--ignore-time"], 0),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as root:
        for index, (name, base_host, cur_host, seconds, extra, want) in \
                enumerate(cases):
            base_dir = os.path.join(root, f"{index}_base")
            cur_dir = os.path.join(root, f"{index}_cur")
            os.mkdir(base_dir)
            os.mkdir(cur_dir)
            for directory, doc in ((base_dir, figure(base_host, 1.0)),
                                   (cur_dir, figure(cur_host, seconds))):
                with open(os.path.join(directory, "BENCH_t.json"), "w",
                          encoding="utf-8") as f:
                    json.dump(doc, f)
            with contextlib.redirect_stdout(io.StringIO()):
                got = main(["compare_bench.py", base_dir, cur_dir] + extra)
            verdict = "ok" if got == want else "FAIL"
            if got != want:
                failures += 1
            print(f"{verdict}: {name}: exit {got}, want {want}")
    print("self-test passed" if failures == 0
          else f"self-test: {failures} case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
