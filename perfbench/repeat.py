"""Run the benchmark on several seeds and summarise the runs.

    python3 perfbench/repeat.py --workload protocol --seeds 1-10 \
        --seconds 30 [--trace 0|1] [--out perfbench/results/NAME.json]

Runs ``run.py`` once per seed, one run at a time, from the root of the
checkout. Prints each run's metrics, then per metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median. With ``--out`` it writes the
runs and the summary as JSON, merging into the file if it exists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# log lines kept per run: machine, inputs, op count, tail percentile, checks
KEEP = ("env ", "inputs ", "workload=", "op_ms_tail is", "check failed", "traced ")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
        ]  # fmt: skip
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"seed={seed} exit={proc.returncode} no result\n{proc.stderr}")
            return 1
        digest = next((l[7:] for l in lines if l.startswith("digest=")), None)
        runs.append({
            "seed": seed, "exit": proc.returncode, "wall_s": round(wall, 1),
            "digest": digest, "result": result,
            "log": [l for l in lines[:-1] if l.startswith(KEEP)],
        })  # fmt: skip
        print(
            f"seed={seed} exit={proc.returncode} wall={wall:.1f}s "
            f"ops={result['attempted']} failed={result['failed']} "
            f"correct={result['correct']} digest={digest[:12] if digest else None}",
            flush=True,
        )

    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
        | {"unit": runs[0]["result"]["metrics"][name]["unit"]}
        for name in names
    }
    if args.trace == "0":
        for name, s in summary.items():
            print(
                f"{name:12s} median={s['median']:.5g} q1={s['q1']:.5g} "
                f"q3={s['q3']:.5g} spread={s['spread']:.4f} {s['unit']}"
            )
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload}/trace{args.trace}"
        doc[key] = {"seconds": float(args.seconds), "summary": summary, "runs": runs}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
