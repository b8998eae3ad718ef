"""One workload in one fresh process: set-up probes, a warm-up pass, timed passes.

run.py starts it as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

and it prints one JSON line describing every pass. Pass k writes its CSV
files to .perfbench-out/NAME/pass-k/; run.py checks them after this process
has ended, so the checks add nothing to its time or memory. With --probe it
only imports the CLI and builds the inputs: that is one set-up sample.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 2
THREAD_ENV = ("SCATTER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def probe(args) -> None:
    t0 = time.perf_counter()
    import modscatter.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    workloads.build(args.workload, args.seed, args.quick)
    print(json.dumps({"import_s": import_s}))


def setup_samples(args, n: int) -> tuple[float, float]:
    """Medians of (fresh-interpreter set-up wall time, import time)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    walls, imports = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def make_runner(cli_main, cmds, workdir: Path):
    """A function that runs one pass and returns its record."""
    count = 0

    def run_pass(kind: str, tracer=None) -> dict:
        nonlocal count
        outdir = workdir / f"pass-{count}"
        outdir.mkdir(parents=True)
        count += 1
        main = cli_main
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.install()
            main = tracer.wrap("cli.main", cli_main)
        rcs = []
        with contextlib.redirect_stdout(io.StringIO()):  # CLI summary lines
            t0, c0 = time.perf_counter(), time.process_time()
            for cmd in cmds:
                rcs.append(main([*cmd.argv, "--out", str(outdir / cmd.out)]))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        record = {"dir": outdir.name, "kind": kind, "wall": wall, "cpu": cpu,
                  "ops": len(rcs), "failed": sum(rc != 0 for rc in rcs),
                  "exit_codes": rcs}
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracing.layer_metrics(tracer.spans[mark:])
        return record

    return run_pass


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{name: os.environ.get(name) for name in THREAD_ENV},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        probe(args)
        return 0

    setup_s, import_s = setup_samples(args, 1 if args.quick else SETUP_PROBES)
    from modscatter.cli import main as cli_main
    import modscatter
    src = ROOT / "src"
    if Path(modscatter.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {modscatter.__file__}, not the package in {src}")

    cmds = workloads.build(args.workload, args.seed, args.quick)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    run_pass = make_runner(cli_main, cmds, workdir)
    tracer = tracing.Tracer() if args.trace else None
    passes = [] if args.quick else [run_pass("warm-up")]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass("timed"))
        if tracer is not None:
            passes.append(run_pass("traced", tracer))
        if args.quick:
            break
        rounds = sum(p["kind"] == "timed" for p in passes)
        spent = time.perf_counter() - round_start
        if (rounds >= (1 if tracer else MIN_TIMED_PASSES)
                and time.perf_counter() - start + spent > args.seconds):
            break
    if tracer is not None:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "setup_s": setup_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
