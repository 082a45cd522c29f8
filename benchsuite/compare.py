#!/usr/bin/env python3
"""Compare two sets of StatFI benchmark runs against BENCHMARK.json.

    python3 benchsuite/compare.py PARENT [CHANGE]

PARENT and CHANGE are files, or directories of files, holding run.py's
stdout (one run or `--workload all` per file). For every workload and
end-to-end metric it prints each set's median and quartiles, the pairs
CHANGE wins (pairs matched by seed, else by order) and a verdict:

  unresolved  either set's quartile distance exceeds the metric's bound,
              unless every CHANGE run reads better than every PARENT run;
  regressed   CHANGE's median is worse than PARENT's by more than the bound;
  improved    CHANGE wins at least 9 in 10 pairs (ties count for neither)
              and its median is better by more than PARENT's quartile
              distance;
  unchanged   otherwise.

With one set it prints each metric's spread (quartile distance over
median) next to a third of its bound. Traced runs are compared with the
untraced runs of the same set to show the tracing overhead. Exits 1 when a
metric regressed or CHANGE failed a larger share of its operations (one
set: when a spread other than setup_s exceeds its bound).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP = "# statfi-bench "


def load_runs(source):
    """(stamp, result) pairs from every file under @p source."""
    path = Path(source)
    files = (sorted(p for p in path.rglob("*") if p.is_file())
             if path.is_dir() else [path])
    runs = []
    for f in files:
        stamp = None
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(STAMP):
                stamp = json.loads(line[len(STAMP):])
            elif stamp is not None and line.startswith("{"):
                runs.append((stamp, json.loads(line)))
                stamp = None
    return runs


def by_workload(runs, trace):
    out = {}
    for stamp, result in runs:
        if stamp["trace"] == trace:
            out.setdefault(stamp["workload"], []).append((stamp, result))
    return out


def seeded_values(runs, metric):
    return [(s["seed"], r["metrics"][metric]["value"]) for s, r in runs
            if metric in r["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def error_rate(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    return sum(r["failed"] for _, r in runs) / attempted if attempted else 0.0


def matched_pairs(a, b):
    """(parent, change) value pairs: by seed when the seeds match, else in
    order."""
    da, db = dict(a), dict(b)
    if set(da) == set(db):
        return [(da[s], db[s]) for s in sorted(da)]
    return list(zip(da.values(), db.values()))


def verdict(a, b, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound and \
            not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    if sign * (mb - ma) / ma < -bound:
        return "regressed"
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    q1, q3 = quartiles(a)
    if wins >= 0.9 * len(pairs) and sign * (mb - ma) > q3 - q1:
        return "improved"
    return "unchanged"


def fmt(x):
    return f"{x:.4g}"


def report_one(runs, bench):
    print(f"{'workload':<24} {'metric':<13} {'n':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound/3':>7}")
    ok = True
    for name, group in sorted(by_workload(runs, 0).items()):
        for m in bench["end_to_end"]:
            v = [x for _, x in seeded_values(group, m["name"])]
            if not v:
                continue
            q1, q3 = quartiles(v)
            s = spread(v)
            ok = ok and (m["name"] == "setup_s" or s <= m["bound"])
            print(f"{name:<24} {m['name']:<13} {len(v):>3} "
                  f"{fmt(statistics.median(v)):>10} {fmt(q1):>10} "
                  f"{fmt(q3):>10} {s:>7.3f} {m['bound'] / 3:>7.3f}"
                  + ("" if s <= m["bound"] / 3 else "  wide"))
        print(f"{name:<24} error rate {error_rate(group):.4f}")
    return ok


def report_pair(parent, change, bench):
    print(f"{'workload':<24} {'metric':<13} {'parent [q1, q3]':>32} "
          f"{'change [q1, q3]':>32} {'wins':>7}  verdict")
    ok = True
    a_sets, b_sets = by_workload(parent, 0), by_workload(change, 0)
    for name in sorted(set(a_sets) & set(b_sets)):
        for m in bench["end_to_end"]:
            a = seeded_values(a_sets[name], m["name"])
            b = seeded_values(b_sets[name], m["name"])
            if not a or not b:
                continue
            av, bv = [x for _, x in a], [x for _, x in b]
            pairs = matched_pairs(a, b)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            v = verdict(av, bv, pairs, m["better"], m["bound"])
            ok = ok and v != "regressed"
            cells = []
            for vals in (av, bv):
                q1, q3 = quartiles(vals)
                cells.append(f"{fmt(statistics.median(vals))} "
                             f"[{fmt(q1)}, {fmt(q3)}]")
            print(f"{name:<24} {m['name']:<13} {cells[0]:>32} {cells[1]:>32} "
                  f"{wins:>3}/{len(pairs):<3}  {v}")
        ea, eb = error_rate(a_sets[name]), error_rate(b_sets[name])
        print(f"{name:<24} error rate {ea:.4f} -> {eb:.4f}")
        ok = ok and eb <= ea
    return ok


def report_overhead(runs, bench):
    """Traced runs' end-to-end readings against the untraced median."""
    untraced = by_workload(runs, 0)
    for name, group in sorted(by_workload(runs, 1).items()):
        for m in bench["end_to_end"]:
            base = [x for _, x in seeded_values(untraced.get(name, []),
                                                m["name"])]
            traced = [s["traced_e2e"][m["name"]] for s, _ in group
                      if m["name"] in s.get("traced_e2e", {})]
            if base and traced:
                ratio = statistics.median(traced) / statistics.median(base)
                print(f"tracing overhead {name:<24} {m['name']:<13} "
                      f"{ratio - 1:+.3f}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [load_runs(source) for source in sys.argv[1:]]
    ok = report_one(runs[0], bench) if len(runs) == 1 else \
        report_pair(runs[0], runs[1], bench)
    report_overhead(runs[-1], bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
