"""The sprcause benchmark: real `identify` / `validate` jobs, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Load is a closed loop with one client: jobs run one after another from this
process, and a job's process pool never has more workers than CPUs (at
most 2).  Job j of a run uses sample seed `1000 * N + j`; its output is
checked (workloads.py) and its SHA-256 recorded.

--trace 0 first times SETUP_REPEATS fresh interpreters that import the
package and load the job's inputs (setup_s), then runs CLI jobs, each in a
fresh process, until S seconds have passed.  It reports the median setup
time and the median wall time, CPU time (user + system, pool children
included) and peak RSS (largest process of the job's tree) of one job.

--trace 1 runs the job serially (workers=1), so that no span is lost in a
pool child, in pairs: untraced, then traced with the wrappers of tracer.py.
It reports the per-layer metrics (medians over the traced jobs) and
trace.overhead, the traced over the untraced time of the same job.  Both
outputs of a pair must be byte-identical.

--all runs every workload both ways and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
machine, the jobs and their output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150.0
MAX_WORKERS = 2
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], env: dict, log: Path) -> dict:
    """Run argv to completion in its own session; wall, CPU and peak RSS.

    os.wait4 reports the usage of the process together with every child it
    reaped, which covers a job's process pool.
    """
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


class Run:
    """One benchmark run of one workload: its directory, inputs and jobs."""

    def __init__(self, workload, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
        self.dir = WORK / workload.name / f"trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]]
                                             if os.environ.get("PYTHONPATH") else [])
        )
        # parallelism comes from the process pool; BLAS threads on top of it
        # only oversubscribe the CPUs and make timings noisy
        self.env.update(BLAS_THREADS)
        self.model_ref = workload.model
        if workload.model == "lobby":
            from lobby import lobby_model
            from sprcause.model import model_to_json

            path = self.dir / "lobby.model.json"
            path.write_text(json.dumps(model_to_json(lobby_model())), encoding="utf-8")
            self.model_ref = str(path)
        self.jobs: list[dict] = []
        self.setups: list[dict] = []

    def job_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def _checked(self, record: dict, out: Path) -> dict:
        problems = []
        if record["exit_code"] != 0:
            problems.append(f"exit code {record['exit_code']}")
        if out.is_file():
            data = out.read_bytes()
            record["sha256"] = hashlib.sha256(data).hexdigest()
            if not problems:
                try:
                    problems += self.workload.check(data)
                except (ValueError, KeyError, TypeError) as e:
                    problems.append(f"unreadable output: {e!r}")
        else:
            problems.append("no output")
        record["problems"] = problems
        return record

    def setup(self) -> None:
        argv = [sys.executable, str(HERE / "setup_probe.py"), self.model_ref, self.workload.dist]
        if self.workload.solution is not None:
            argv.append(str(self.workload.solution))
        for r in range(SETUP_REPEATS):
            record = run_process(argv, self.env, self.dir / f"setup{r}.log")
            record["problems"] = [] if record["exit_code"] == 0 else ["setup failed"]
            self.setups.append(record)

    def cli_job(self, j: int) -> dict:
        out = self.dir / f"job{j}.out"
        argv = [sys.executable, "-m", "sprcause.cli",
                *self.workload.cli_args(self.model_ref, self.job_seed(j), self.workers, out)]
        record = run_process(argv, self.env, self.dir / f"job{j}.log")
        record["seed"] = self.job_seed(j)
        return self._checked(record, out)

    def in_process_job(self, j: int, traced: bool) -> dict:
        tag = f"job{j}.{'traced' if traced else 'plain'}"
        out, result = self.dir / f"{tag}.out", self.dir / f"{tag}.result.json"
        argv = [sys.executable, str(HERE / "job.py"), "--trace", str(int(traced)),
                "--result", str(result), "--job", str(j)]
        if traced:
            argv += ["--spans", str(self.dir / f"{tag}.spans.json")]
        if self.workload.points:
            argv += ["--points", str(self.workload.points)]
        argv += ["--", *self.workload.cli_args(self.model_ref, self.job_seed(j), 1, out)]
        record = run_process(argv, self.env, self.dir / f"{tag}.log")
        record["seed"] = self.job_seed(j)
        record["traced"] = traced
        if result.is_file():
            record.update(json.loads(result.read_text(encoding="utf-8")))
        return self._checked(record, out)

    def measure(self, seconds: float) -> None:
        """Run jobs (traced: pairs of jobs) one after another.

        Another one starts only while it is expected to end less than half
        its own time past `seconds`; the first one always runs.
        """
        begin = time.perf_counter()
        durations: list[float] = []
        while not durations or (time.perf_counter() - begin
                                 + statistics.median(durations) / 2 < seconds):
            start = time.perf_counter()
            j = len(durations)
            if self.trace:
                plain = self.in_process_job(j, traced=False)
                traced = self.in_process_job(j, traced=True)
                if traced.get("sha256") != plain.get("sha256"):
                    traced["problems"].append("traced output differs from untraced output")
                self.jobs += [plain, traced]
            else:
                self.jobs.append(self.cli_job(j))
            durations.append(time.perf_counter() - start)

    def metrics(self) -> dict[str, float]:
        if not self.trace:
            return {
                "setup_s": statistics.median(r["wall_s"] for r in self.setups),
                "wall_s": statistics.median(r["wall_s"] for r in self.jobs),
                "cpu_s": statistics.median(r["cpu_s"] for r in self.jobs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.jobs),
            }
        traced = [r for r in self.jobs if r["traced"] and "layers" in r]
        plain = {r["seed"]: r for r in self.jobs if not r["traced"]}
        out = {name: statistics.median(r["layers"][name] for r in traced) if traced else 0.0
               for name in PER_LAYER if name != "trace.overhead"}
        ratios = [r["elapsed_s"] / plain[r["seed"]]["elapsed_s"] for r in traced
                  if "elapsed_s" in plain.get(r["seed"], {})]
        out["trace.overhead"] = statistics.median(ratios) if ratios else 0.0
        return out

    def operations(self) -> list[dict]:
        return self.setups + self.jobs


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (the record line, the result line)."""
    import machine
    from workloads import WORKLOADS

    run = Run(WORKLOADS[name], seed, trace)
    if not trace:
        run.setup()
    run.measure(seconds)
    ops = run.operations()
    failed = sum(1 for r in ops if r["problems"])
    units = PER_LAYER if trace else END_TO_END
    values = run.metrics()
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "machine": machine.record(ROOT, run.workers, BLAS_THREADS),
        "setups": [{k: r[k] for k in ("wall_s", "exit_code")} for r in run.setups],
        "jobs": [{k: r.get(k) for k in ("seed", "traced", "exit_code", "wall_s", "cpu_s",
                                        "peak_rss_mb", "elapsed_s", "sha256", "problems")}
                 for r in run.jobs],
    }
    return record, result


def run_all(seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            record, result = run_workload(name, seed, seconds, trace)
            print(json.dumps(record), flush=True)
            for metric, v in result["metrics"].items():
                print(f"{name:18} {metric:36} {v['value']:>14.6g} {v['unit']}", flush=True)
            for key in ("attempted", "failed"):
                summary[key] += result[key]
            summary["correct"] &= result["correct"]
            for metric, v in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = v
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sprcause" / "__init__.py").is_file():
        print(f"no sprcause sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.all:
        summary = run_all(args.seed, args.seconds)
        print(json.dumps(summary))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    record, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
