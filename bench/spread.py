"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root, e.g. ten seeds of every workload:

    python3 bench/spread.py --seeds 1-10 --out spread.json
    python3 bench/spread.py --workloads lloyd_bm --seeds 1-5 --trace 1

For each workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  Each run is
one ``bench/run.py`` process, started after the previous one has exited.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append((seed, info, result))
            shown = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  shown if not args.trace else "", flush=True)
        names = runs[0][2]["metrics"]
        summary[workload] = {
            "seeds": [seed for seed, _, _ in runs],
            "attempted": sum(r["attempted"] for _, _, r in runs),
            "failed": sum(r["failed"] for _, _, r in runs),
            "env": runs[0][1]["env"],
            "metrics": {name: {"unit": names[name]["unit"],
                               **summarize([r["metrics"][name]["value"] for _, _, r in runs])}
                        for name in names},
        }
        for name, s in summary[workload]["metrics"].items():
            if args.trace == 0:
                print(f"  {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
