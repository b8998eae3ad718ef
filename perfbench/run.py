"""Benchmark of the modscatter command line, end to end and layer by layer.

    python3 perfbench/run.py --workload spectrum-detuning --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process
    python3 perfbench/run.py --quick             # every workload once, tiny inputs

Run from the root of a checkout. Each workload runs in its own fresh process
(worker.py) against the package in src/; this process then checks every
pass's output files against references computed apart from the program
(checks.py) and prints the metrics named in BENCHMARK.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 reports the per-layer metrics instead of the
end-to-end ones. Details go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_worker(name: str, args) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_passes(name: str, seed: int, quick: bool, passes: list[dict]) -> list[str]:
    cmds = workloads.build(name, seed, quick)
    errors = []
    for k, p in enumerate(passes):
        for i, cmd in enumerate(cmds):
            if p["exit_codes"][i] != 0:
                continue  # counted as failed, not checked
            rng = np.random.default_rng([seed, k, i])
            path = OUT / name / p["dir"] / cmd.out
            errors += [f"{p['dir']}/{cmd.out}: {e}"
                       for e in checks.check(cmd, path, rng)]
    return errors


def metrics_of(result: dict, trace: bool) -> dict[str, float]:
    def median(kind, key):
        return statistics.median(p[key] for p in result["passes"] if p["kind"] == kind)

    if not trace:
        return {"wall_s": median("timed", "wall"), "cpu_s": median("timed", "cpu"),
                "peak_rss_mb": result["peak_rss_mb"], "setup_s": result["setup_s"]}
    traced = [p["layers"] for p in result["passes"] if p["kind"] == "traced"]
    out = {key: statistics.median(layers[key] for layers in traced)
           for key in traced[0]}
    out["setup.import_s"] = result["import_s"]
    out["trace.overhead_s"] = median("traced", "wall") - median("timed", "wall")
    return out


def run_workload(name: str, args, units: dict[str, str]) -> dict:
    result = run_worker(name, args)
    errors = check_passes(name, args.seed, args.quick, result["passes"])
    metrics = metrics_of(result, bool(args.trace))
    if set(metrics) != set(units):
        raise SystemExit(f"{name}: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    summary = {
        "correct": not errors,
        "attempted": sum(p["ops"] for p in result["passes"]),
        "failed": sum(p["failed"] for p in result["passes"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "errors": errors,
              **summary, **result}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for e in errors:
        print(f"{name}: CHECK FAILED {e}")
    shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in summary["metrics"].items())
    print(f"{name}: {shown}; attempted={summary['attempted']} "
          f"failed={summary['failed']} correct={summary['correct']}")
    print(f"{name}: env {json.dumps(result['env'], sort_keys=True)}")
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload once on tiny inputs, all checks on")
    args = ap.parse_args()
    if not (ROOT / "src" / "modscatter" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_units()
    units = layer_units if args.trace else e2e_units
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {name: run_workload(name, args, units) for name in names}
    if len(summaries) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{k}": v for name, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
