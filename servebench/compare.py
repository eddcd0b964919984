#!/usr/bin/env python3
"""Compare bench_serve results (see SERVE.md).

    compare.py BASELINE RESULT...
        Structural check. Every run in the RESULT files (BENCH_serve.json
        files, or directories of them) of a workload the BASELINE also
        holds must carry exactly the baseline's `structure` counts:
        oracle answer totals, warm-up instance sizes and the structural
        gates. The corpora do not depend on the seed, so these counts are
        the same in every run; any difference is a behaviour change,
        never noise.

    compare.py --ab PARENT_DIR CHANGE_DIR
        Timing verdicts for a change. Each directory holds the
        BENCH_serve*.json files of runs of one side, the two sides run
        alternately with the same seeds and --seconds. For each workload
        and each end-to-end metric of the checkout's BENCHMARK.json, with
        its bound, it prints each side's median and quartiles, the share
        of seed-matched pairs the change wins, and a verdict:
          improved      the change wins at least 9 in 10 pairs and the
                        medians differ by more than the parent's own
                        spread (distance between its quartiles);
          regressed     the change's median is worse than the parent's by
                        more than the metric's bound;
          unresolved    the parent's spread is wider than the bound and
                        not every change run beats every parent run;
          within bound  otherwise.
        Timings are refused when the two sides ran on different hosts
        (core count, compiler, build type).

    compare.py --self-test
        Runs the verdict and structure logic on embedded payloads.

Exit status: 0 when nothing regressed or changed structurally, 1 when
something did, 2 on unusable input (including a host mismatch).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
HOST_KEYS = ("nproc", "compiler", "build_type")
MIN_PAIRS = 10


def load_results(paths):
    """BENCH_serve payloads from files and directories of files."""
    payloads = []
    for path in paths:
        names = ([os.path.join(path, n) for n in sorted(os.listdir(path))
                  if n.endswith(".json")] if os.path.isdir(path) else [path])
        for name in names:
            with open(name, encoding="utf-8") as f:
                payload = json.load(f)
            if payload.get("bench") == "serve":
                payloads.append(payload)
    return payloads


def runs_by_key(payloads):
    """{(workload, seed): run} over every run of every payload."""
    runs = {}
    for payload in payloads:
        for run in payload.get("runs", []):
            runs[(run["workload"], payload["seed"])] = run
    return runs


def host_of(payloads):
    """The one host all payloads ran on, or None when they differ."""
    hosts = {tuple(p.get("host", {}).get(k) for k in HOST_KEYS)
             for p in payloads}
    return hosts.pop() if len(hosts) == 1 else None


def structure_diffs(baseline, results):
    """(runs checked, lines naming every structure count that differs)."""
    expected = {run["workload"]: run.get("structure", {})
                for run in baseline.get("runs", [])}
    diffs = []
    checked = 0
    for payload in results:
        for run in payload.get("runs", []):
            workload = run["workload"]
            if workload not in expected:
                continue
            checked += 1
            want = expected[workload]
            got = run.get("structure", {})
            for field in sorted(set(want) & set(got)):
                if want[field] != got[field]:
                    diffs.append(f"{workload} seed {payload['seed']}: "
                                 f"{field} {want[field]} -> {got[field]}")
    return checked, diffs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    """(verdict, wins, pairs) for one metric over seed-matched pairs.

    `parent` and `change` map seed -> value; `metric` carries `better`
    and `bound` as in BENCHMARK.json.
    """
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    lower = metric["better"] == "lower"
    sign = -1.0 if lower else 1.0  # positive = the change is better

    def better(a, b):
        return sign * (a - b) > 0

    wins = sum(1 for a, b in zip(c, p) if better(a, b))
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    worse_by = -sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(better(a, b) for a in c for b in p)
    if (wins >= 0.9 * len(seeds) and better(c_med, p_med) and
            abs(c_med - p_med) > p_q3 - p_q1):
        result = "improved"
    elif spread > metric["bound"] and not all_better:
        result = "unresolved"
    elif worse_by > metric["bound"]:
        result = "regressed"
    else:
        result = "within bound"
    return result, wins, len(seeds)


def compare_ab(parent_dir, change_dir):
    with open(BENCHMARK, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    # End-to-end timings come from untraced runs only.
    parent = [p for p in load_results([parent_dir]) if not p.get("traced")]
    change = [p for p in load_results([change_dir]) if not p.get("traced")]
    if not parent or not change:
        print("no BENCH_serve results in one of the directories")
        return 2
    if host_of(parent + change) is None:
        print("refusing timing comparison: the runs do not share one host "
              f"({', '.join(HOST_KEYS)} differ)")
        return 2
    p_runs, c_runs = runs_by_key(parent), runs_by_key(change)
    workloads = sorted({w for w, _ in p_runs} & {w for w, _ in c_runs})
    regressed = 0
    for workload in workloads:
        seeds = sorted({s for w, s in p_runs if w == workload} &
                       {s for w, s in c_runs if w == workload})
        failed = [sum(side[(workload, s)]["failed"] for s in seeds)
                  for side in (p_runs, c_runs)]
        note = (f"  (only {len(seeds)} pairs; {MIN_PAIRS} are needed for a "
                "claim)" if len(seeds) < MIN_PAIRS else "")
        print(f"{workload}: {len(seeds)} pairs, failed requests parent "
              f"{failed[0]} / change {failed[1]}{note}")
        for metric in metrics:
            name = metric["name"]
            p = {s: p_runs[(workload, s)]["metrics"][name]["value"]
                 for s in seeds}
            c = {s: c_runs[(workload, s)]["metrics"][name]["value"]
                 for s in seeds}
            result, wins, pairs = verdict(metric, p, c)
            regressed += result == "regressed"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"  {name:16s} parent {pq[1]:12.4f} [{pq[0]:.4f}, "
                  f"{pq[2]:.4f}]  change {cq[1]:12.4f} [{cq[0]:.4f}, "
                  f"{cq[2]:.4f}]  wins {wins}/{pairs}  {result}")
    return 1 if regressed else 0


def compare_structure(baseline_path, result_paths):
    baseline = load_results([baseline_path])
    results = load_results(result_paths)
    if len(baseline) != 1 or not results:
        print("need one baseline payload and at least one result")
        return 2
    checked, diffs = structure_diffs(baseline[0], results)
    for line in diffs:
        print(f"  STRUCTURAL CHANGE {line}")
    print(f"{checked} run(s) compared with the baseline, "
          f"{len(diffs)} structural change(s)")
    return 1 if diffs else 0


def self_test():
    bound = {"name": "latency_geomean_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "throughput_rps", "better": "higher", "bound": 0.1}
    seeds = range(10)
    tight = {s: 10.0 + 0.01 * s for s in seeds}
    cases = [
        (bound, tight, {s: v * 0.8 for s, v in tight.items()}, "improved"),
        (bound, tight, {s: v * 1.2 for s, v in tight.items()}, "regressed"),
        (bound, tight, {s: v * 1.02 for s, v in tight.items()},
         "within bound"),
        (bound, {s: 10.0 + 5 * (s % 3) for s in seeds},
         {s: 10.5 + 5 * (s % 3) for s in seeds}, "unresolved"),
        (higher, tight, {s: v * 1.3 for s, v in tight.items()}, "improved"),
        (higher, tight, {s: v * 0.85 for s, v in tight.items()},
         "regressed"),
    ]
    failures = 0
    for metric, parent, change, want in cases:
        got = verdict(metric, parent, change)[0]
        if got != want:
            failures += 1
            print(f"FAIL {metric['name']}: want {want}, got {got}")

    def payload(host, structure):
        return {"bench": "serve", "seed": 42,
                "host": {"nproc": host, "compiler": "GNU 12",
                         "build_type": "Release"},
                "runs": [{"workload": "fault_in", "structure": structure}]}

    base = payload(4, {"oracle_answer_total": 31693, "spill_read_gap": 0})
    same = payload(4, {"oracle_answer_total": 31693, "spill_read_gap": 0})
    moved = payload(4, {"oracle_answer_total": 31694, "spill_read_gap": 0})
    if structure_diffs(base, [same]) != (1, []):
        failures += 1
        print("FAIL identical structure reported a change")
    if len(structure_diffs(base, [moved])[1]) != 1:
        failures += 1
        print("FAIL a moved count went unreported")
    if host_of([base, payload(8, {})]) is not None:
        failures += 1
        print("FAIL runs from different hosts were accepted")
    print("self-test " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if len(args) == 3 and args[0] == "--ab":
        return compare_ab(args[1], args[2])
    if len(args) >= 2 and not any(a.startswith("--") for a in args):
        return compare_structure(args[0], args[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
