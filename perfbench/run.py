"""qmodular benchmark: cold-process passes over fixed workloads, each output gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    verify_all    `qmodular verify all` at default bounds (ignores the seed)
    exact_series  five exact-arithmetic CLI commands at a seeded order near 2000
    rank_series   a library pass over R(w, q) at a seeded order near 100

One client runs one pass at a time (a closed loop); every process of a pass
is started fresh, so the tau and p(n) caches are cold.  Passes repeat until
the next one would end after S seconds (at least one pass runs).

With --trace 0 the passes run untraced and the last stdout line reports
wall_s, cpu_s, setup_s and peak_rss_mb.  The times are scaled to a reference
host speed, measured by calibrate.py during the run (README.md, "Host speed").
With --trace 1 untraced and traced passes alternate, and it reports the
per-layer metrics of tracer.PER_LAYER.
Every run checks each output, runs two negative controls that must fail,
and prints its context (seed, commit, Python, nproc, load average per pass).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import gates
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
SAMPLES_PER_CYCLE = 2
# Untraced times are reported in seconds at the host speed where the
# calibration job takes CALIBRATION_REF_S (see README.md, "Host speed").
CALIBRATION_REF_S = 0.1
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Command:
    kind: str  # "cli": a qmodular command line; "rank": the library pass of worker.py
    args: list[str]
    gate: Callable[[bytes], list[str]]

    def argv(self, traced: bool, pass_id: int) -> list[str]:
        if traced:
            return [sys.executable, WORKER, "--trace", "--pass-id", str(pass_id), self.kind, *self.args]
        if self.kind == "cli":
            return [sys.executable, "-m", "qmodular.cli", *self.args]
        return [sys.executable, WORKER, self.kind, *self.args]


@dataclass
class Workload:
    params: dict
    commands: list[Command]
    # maps the outputs of a good pass to (command index, deliberately wrong output)
    corrupt: Callable[[list[bytes]], tuple[int, bytes]]


def _bump_last_rank_coefficient(out: bytes) -> bytes:
    obj = json.loads(out)
    obj["polys"][-1][1][0] += 1
    return json.dumps(obj).encode()


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "verify_all":
        return Workload(
            {},
            [Command("cli", ["verify", "all"], gates.verify_all)],
            lambda outs: (0, outs[0].replace(b'"ok":true', b'"ok":false', 1)),
        )
    if name == "exact_series":
        n, m = rng.randint(1990, 2010), rng.randint(115, 125)
        refs = gates.ExactSeriesRefs(n, m)
        return Workload(
            {"order": n, "rank_n_max": m},
            [
                Command("cli", ["expand", "delta", "--order", str(n)], refs.expand_delta),
                Command("cli", ["expand", "euler--1", "--order", str(n)], refs.expand_euler),
                Command("cli", ["expand", "mock-f", "--order", str(n)], refs.expand_mock),
                Command("cli", ["verify", "tau", "--n-max", str(n)], refs.verify_tau),
                Command("cli", ["tables", "rank", "--n-max", str(m), "--format", "json"], refs.tables_rank),
            ],
            lambda outs: (0, outs[0].replace(b"[-24,1]", b"[-23,1]", 1)),
        )
    if name == "rank_series":
        n = rng.randint(99, 100)
        refs = gates.RankSeriesRefs(n)
        return Workload(
            {"order": n},
            [Command("rank", [str(n)], refs.check)],
            lambda outs: (0, _bump_last_rank_coefficient(outs[0])),
        )
    raise BenchError(f"unknown workload {name!r}")


# -- processes and passes ----------------------------------------------------------


@dataclass
class Proc:
    code: int
    out: bytes
    err: bytes
    cpu_s: float
    rss_mb: float


def run_process(argv: list[str]) -> Proc:
    """Run one child to completion; its own CPU time and peak RSS come from wait4."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
        reader.join()
        p.stdout.close()
        p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out, err[0], usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def check(gate: Callable[[bytes], list[str]], out: bytes) -> list[str]:
    try:
        return gate(out)
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        return [f"gate raised {exc!r}"]


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    load: tuple[float, float]
    outputs: list[bytes]
    problems: list[list[str]]  # per command; empty when the output passed its gate
    dumps: list[dict]


def run_pass(commands: list[Command], traced: bool, pass_id: int) -> Pass:
    load_before = os.getloadavg()[0]
    t0 = time.perf_counter()
    procs = [run_process(c.argv(traced, pass_id)) for c in commands]
    wall = time.perf_counter() - t0
    load_after = os.getloadavg()[0]
    outputs, problems, dumps = [], [], []
    for c, proc in zip(commands, procs):
        code, out = proc.code, proc.out
        if traced and code == 0:
            try:
                obj = json.loads(out)
                code, out = obj["exit"], obj["stdout"].encode()
                dumps.append(obj["trace"])
            except (ValueError, KeyError, AttributeError) as exc:
                code, out = -1, b""
                proc.err += f"unreadable traced worker output: {exc!r}".encode()
        outputs.append(out)
        if code != 0:
            tail = proc.err.decode(errors="replace").strip()[-300:]
            problems.append([f"{' '.join(c.args)}: exit code {code}: {tail}"])
        else:
            problems.append(check(c.gate, out))
    return Pass(
        traced,
        wall,
        sum(p.cpu_s for p in procs),
        max(p.rss_mb for p in procs),
        (load_before, load_after),
        outputs,
        problems,
        dumps,
    )


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list[Pass], list[float], list[float]]:
    """Closed loop, one client: untraced passes, alternating with traced ones if asked.

    Untraced runs also take SAMPLES_PER_CYCLE set-up and calibration samples
    after each pass, so that they cover the same stretch of time as the passes.
    """
    passes: list[Pass] = []
    setup: list[float] = []
    calibration: list[float] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload.commands, False, len(cycles)))
        if trace:
            passes.append(run_pass(workload.commands, True, len(cycles)))
        else:
            for _ in range(SAMPLES_PER_CYCLE):
                setup.append(setup_time())
                calibration.append(calibration_time())
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return passes, setup, calibration


# -- set-up and controls -------------------------------------------------------------


def setup_time() -> float:
    """Seconds from process start until `import qmodular.cli` returns, in a fresh process."""
    code = "import qmodular.cli, sys; sys.stdout.write(qmodular.cli.__file__ + '\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=ENV, cwd=ROOT)
    line = p.stdout.readline()
    elapsed = time.perf_counter() - t0
    p.stdout.read()
    p.stdout.close()
    if p.wait() != 0 or not line.decode().startswith(os.path.join(SRC, "")):
        raise BenchError(f"qmodular does not import from {SRC}: {line!r}")
    return elapsed


def calibration_time() -> float:
    """Wall time of the fixed reference job calibrate.py in a fresh process."""
    t0 = time.perf_counter()
    proc = run_process([sys.executable, CALIBRATE])
    elapsed = time.perf_counter() - t0
    if proc.code != 0:
        raise BenchError(f"calibration job failed with exit code {proc.code}")
    return elapsed


def negative_controls(workload: Workload, good: list[bytes]) -> list[str]:
    """Both controls must fail; each that passes is returned as a problem."""
    problems = []
    fault = run_process([sys.executable, "-m", "qmodular.cli", "verify", "tau", "--inject-tau-fault"])
    if fault.code != 1 or b'"ok":false' not in fault.out:
        problems.append(f"control: verify tau --inject-tau-fault exited {fault.code}, want 1 with ok false")
    try:
        index, bad = workload.corrupt(good)
    except (ValueError, LookupError, TypeError) as exc:  # the first pass's output was already wrong
        return problems + [f"control: could not alter the first pass's output: {exc!r}"]
    if bad == good[index] or not check(workload.commands[index].gate, bad):
        problems.append("control: the gate accepted a deliberately altered output")
    return problems


# -- reporting -------------------------------------------------------------------------


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def describe(values: list[float], unit: str) -> str:
    """Median and sample count, plus each high percentile with ten samples beyond it."""
    text = f"median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g} {unit}"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(tracer.PREDICTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qmodular", "cli.py")):
        raise BenchError(f"no qmodular sources under {SRC}")

    setup_time()  # untimed: proves the checkout's src is imported and fills the bytecode cache
    workload = make_workload(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} params {json.dumps(workload.params)}", flush=True)
    passes, setup, calibration = measure(workload, args.seconds, bool(args.trace))
    problems = negative_controls(workload, passes[0].outputs)

    attempted = failed = 0
    for i, p in enumerate(passes):
        attempted += len(p.problems)
        failed += sum(1 for pr in p.problems if pr)
        print(
            f"pass {i} {'traced' if p.traced else 'untraced'}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
            f"peak rss {p.rss_mb:.1f} MB, load {p.load[0]:.2f} -> {p.load[1]:.2f}, "
            f"{'FAILED' if any(p.problems) else 'ok'}"
        )
        for pr in p.problems:
            problems += pr
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    walls = [p.wall_s for p in untraced]

    if args.trace:
        dumps = [p.dumps for p in traced]
        problems += [f"coverage: wrapper {w} was never reached" for w in tracer.coverage_gaps(args.workload, dumps)]
        values = tracer.layer_metrics(dumps)
        values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([d["spans"] for p in traced for d in p.dumps], fh)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        speed = CALIBRATION_REF_S / statistics.median(calibration)
        samples = {
            "wall_s": (walls, "s", speed),
            "cpu_s": ([p.cpu_s for p in untraced], "s", speed),
            "setup_s": (setup, "s", speed),
            "peak_rss_mb": ([p.rss_mb for p in untraced], "MB", 1.0),
        }
        metrics = {name: {"value": statistics.median(v) * k, "unit": u} for name, (v, u, k) in samples.items()}
        print(f"calibration {describe(calibration, 's')}: times below are scaled by {speed:.6g}")
        for name, (v, u, k) in samples.items():
            scaled = " scaled" if k != 1.0 else ""
            print(f"{name} {metrics[name]['value']:.6g} {u}{scaled}; raw {describe(v, u)}")
        print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")

    for pr in problems:
        print(f"PROBLEM {pr}")
    context = {
        "seed": args.seed,
        "workload": args.workload,
        "params": workload.params,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": [[round(x, 2) for x in p.load] for p in passes],
        "calibration_s": statistics.median(calibration) if calibration else None,
    }
    print("context " + json.dumps(context, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
