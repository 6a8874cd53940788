"""roadsurf benchmark driver.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                         [--record results.jsonl]

Runs from the root of a repository checkout.  Each workload runs in child
processes with BLAS pinned to one thread, in a scratch directory under
``.bench_work/`` that is removed afterwards.  An untraced run starts
SETUP_SAMPLES set-up children (import, generate the tile, save it) and then
one measuring child; a traced run starts one measuring child that also sets
up.  The last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
``meta {...}``, records the revision, versions, thread settings, input sizes
and sample counts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from child import scaled  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
# a measuring child runs ``seconds`` plus at most MIN_INVOCATIONS calls
# more; run.py must end within 180 s
MEASURE_TIMEOUT_S = 140
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed program output)."""


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _child(job: dict, work: Path, timeout: float) -> tuple[float, list[str]]:
    """Run child.py; returns (seconds from start to its first line, all lines)."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
                            cwd=work, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        first_at = time.perf_counter() - start
        lines = [first] + proc.stdout.readlines()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or not first:
        raise BenchError(f"{job['mode']} child for {job['workload']} exited with {rc}"
                         + (" (killed after the time limit)" if rc < 0 else ""))
    return first_at, [line.rstrip("\n") for line in lines if line.strip()]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, meta) of one benchmark run."""
    work = ROOT / ".bench_work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    setup_s, raw_setup_s, inputs = [], [], None
    try:
        if not trace:
            for _ in range(SETUP_SAMPLES):
                ready_at, lines = _child(dict(job, mode="setup"), work, SETUP_TIMEOUT_S)
                if not lines[0].startswith("ready "):
                    raise BenchError(f"set-up child printed {lines[0]!r}")
                ready = json.loads(lines[0][len("ready "):])
                inputs = ready["inputs"]
                setup_s.append(scaled(ready_at, ready["probe_overhead"],
                                      ready["probe_mean"]))
                raw_setup_s.append(ready_at)
        _, lines = _child(dict(job, mode="measure"), work, seconds + MEASURE_TIMEOUT_S)
        out = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    if trace:
        metrics = {key: {"value": out["layers"][key], "unit": unit}
                   for key, unit in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(out["scaled_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "mem_peak_mb": {"value": out["mem_peak_mb"], "unit": "MB"},
        }
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "revision": git_revision(ROOT), "nproc": os.cpu_count(),
        "platform": platform.platform(), **out["versions"],
        "blas_env": BLAS_ENV, "inputs": inputs or out.get("inputs"),
        "samples": {"wall_s": len(out["walls"]), "traced": len(out["traced_walls"]),
                    "setup_s": len(setup_s)},
        "walls": out["walls"], "traced_walls": out["traced_walls"],
        "scaled_walls": out.get("scaled_walls", []),
        "setup_walls": raw_setup_s, "scaled_setup_walls": setup_s,
        "absent_spans": out.get("absent_spans", []), "failures": out["failures"],
    }
    return result, meta


def print_table(result: dict, meta: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"samples={meta['samples']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {failed / attempted:>14.6g} ({failed} of {attempted})")
    for failure in meta["failures"]:
        print(f"  FAILED: {failure['problems']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append each run's result and meta as one JSON line")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roadsurf" / "cli.py").is_file():
        print(f"bench: no roadsurf sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, meta = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, ValueError) as err:
            print(f"bench: {name}: {err}", file=sys.stderr)
            return 2
        print_table(result, meta)
        if args.record is not None:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"result": result, "meta": meta}) + "\n")
        print("meta " + json.dumps(meta))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
