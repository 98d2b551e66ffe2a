"""Compare two benchmark result sets, metric by metric, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records appended by ``perfbench/run.py --out``;
only untraced records are compared.  Every (workload, end-to-end
metric) pair is judged against the metric's own bound in
``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more than
  the bound, or the base spread exceeds the bound and every new run
  reads worse than every base run;
* ``better``: the new median is better by more than the base runs'
  quartile spread and the new run wins at least nine in ten of the runs
  paired by seed, or the spread exceeds the bound and every new run
  reads better than every base run;
* ``unresolved``: anything else — either no change beyond the noise, or
  a spread too wide to tell (the row says which).

Only records that passed their correctness checks are timed.  A
workload whose NEW runs fail more often than its BASE runs — a larger
share of failed operations, or of runs that did not pass — is printed
as ``failed`` with no metric verdicts, so a faster but wrong change
never reads as ``better``.  Records of different ``--seconds`` are not
comparable and are refused (exit 2); a seed recorded twice in one file
is warned about on standard error and its last record is kept.

One row is printed per workload.  The exit code is 1 when any workload
is ``failed`` or any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from stats import percentile, quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """Per workload: correct runs' metrics by seed, failure counts, seconds.

    Returns ``{workload: {"metrics": {seed: metrics}, "runs": int,
    "bad_runs": int, "attempted": int, "failed": int, "seconds": set}}``
    from the untraced records in ``path``.
    """
    out: dict = {}
    records: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            key = (record["workload"], record["seed"])
            if key in records:
                print(f"warning: {path}: seed {key[1]} of {key[0]} is "
                      "recorded twice; keeping the last record",
                      file=sys.stderr)
            records[key] = record
    for (workload, seed), record in records.items():
        entry = out.setdefault(workload, {
            "metrics": {}, "runs": 0, "bad_runs": 0,
            "attempted": 0, "failed": 0, "seconds": set(),
        })
        entry["runs"] += 1
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        entry["seconds"].add(record["seconds"])
        if record["correct"]:
            entry["metrics"][seed] = record["metrics"]
        else:
            entry["bad_runs"] += 1
    return out


def more_failures(base: dict, new: dict) -> str | None:
    """Why NEW fails more often than BASE, or None when it does not."""
    def share(entry, part, whole):
        return entry[part] / max(1, entry[whole])

    if share(new, "failed", "attempted") > share(base, "failed", "attempted"):
        return (f"{new['failed']}/{new['attempted']} operations failed, "
                f"base {base['failed']}/{base['attempted']}")
    if share(new, "bad_runs", "runs") > share(base, "bad_runs", "runs"):
        return (f"{new['bad_runs']}/{new['runs']} runs failed their checks, "
                f"base {base['bad_runs']}/{base['runs']}")
    return None


def judge(base: dict, new: dict, better: str, bound: float) -> dict:
    """Verdict for one metric; ``base``/``new`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    base_values, new_values = list(base.values()), list(new.values())
    base_median = percentile(base_values, 50)
    new_median = percentile(new_values, 50)
    # Positive ``worse_by`` is a regression, whatever the direction.
    worse_by = sign * (new_median - base_median) / base_median
    spread = quartile_spread(base_values)

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    all_better = all(beats(n, b) for n in new_values for b in base_values)
    all_worse = all(beats(b, n) for n in new_values for b in base_values)
    paired = [seed for seed in new if seed in base]
    wins = sum(1 for seed in paired if beats(new[seed], base[seed]))
    if spread > bound:
        verdict = ("better" if all_better else
                   "worse" if all_worse else "unresolved")
        reason = f"spread {spread:.3f} > bound {bound}"
    elif worse_by > bound:
        verdict, reason = "worse", f"worse by more than bound {bound}"
    elif (-worse_by > spread and paired
          and wins >= 0.9 * len(paired)):
        verdict, reason = "better", f"won {wins}/{len(paired)} paired"
    else:
        verdict, reason = "unresolved", f"within noise (bound {bound})"
    return {
        "verdict": verdict,
        "reason": reason,
        "base_median": base_median,
        "new_median": new_median,
        "change": (new_median - base_median) / base_median,
        "base_spread": spread,
        "runs": [len(base_values), len(new_values)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)
    code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            continue
        b_side, n_side = base[workload], new[workload]
        seconds = b_side["seconds"] | n_side["seconds"]
        if len(seconds) > 1:
            print(f"error: {workload} was measured with different --seconds "
                  f"{sorted(seconds)}; the runs are not comparable",
                  file=sys.stderr)
            return 2
        failure = more_failures(b_side, n_side)
        if failure is not None:
            print(f"{workload}: failed ({failure})")
            code = 1
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: m[name] for s, m in b_side["metrics"].items() if name in m}
            n = {s: m[name] for s, m in n_side["metrics"].items() if name in m}
            if not (b and n):
                continue
            v = judge(b, n, metric["better"], metric["bound"])
            code = max(code, int(v["verdict"] == "worse"))
            cells.append(
                f"{name} {v['verdict']} ({v['change']:+.1%}, {v['reason']})")
        print(f"{workload}: " + "; ".join(cells))
    return code


if __name__ == "__main__":
    sys.exit(main())
