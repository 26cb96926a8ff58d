"""Benchmark harness for the mmdim CLI (standard library only).

    python3 bench/run.py --workload greedy_square --seed 0 --trace 0

Run from the root of a source checkout.  The program is run from the
checkout's ``src/`` tree, one command at a time, with MMDIM_THREADS removed
from the child environment.

``--trace 0`` times the CLI as a user runs it: the workload's system file is
built several times (``setup_s`` is the median build), then its timed
commands run in passes for up to ``--seconds`` (the first pass always runs).
The timed commands share one CPU with ``reference_load.py``, a fixed load at
low priority, and ``pass_cost`` is the median pass's CPU time in rounds of
that load: each command's CPU seconds times the rounds the load completed
per CPU second while the command ran.  Because both see the same machine at
the same moments, the product cancels the speed drift of a shared host,
which moves raw times by more than any bound the benchmark may set (see
NOTES.md).  Raw wall and CPU times are kept in the record.

``--trace 1`` runs the build once and the timed commands twice inside this
process, first untraced and then with spans around each layer (see
``tracing.py``), and reports per-layer figures plus the tracing overhead on
the timed commands.  ``--seconds`` does not apply to it.

Every command's output is checked (see ``workloads.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record of the run (versions, seed, arguments, every
sample) is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs, Outcome, Workload  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_LOAD = BENCH_DIR / "reference_load.py"
WORK_ROOT = ROOT / ".bench_work"
CLEARED_ENV = ("MMDIM_THREADS",)
COMMAND_TIMEOUT_S = 150
# setup_s: build at least this many times, more while the builds are cheap
MIN_BUILDS, MAX_BUILDS, SETUP_TARGET_S = 3, 9, 2.0
STARTUP_SAMPLES = 5


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_references() -> dict:
    with open(BENCH_DIR / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---- running the program ---------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(command: str, argv: list[str], cwd: Path,
              program: tuple[str, ...] = ("-m", "mmdim.cli")) -> Outcome:
    """Run one CLI child to completion; wall time and peak RSS come from wait4."""
    full = [sys.executable, *program, *argv]
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(full, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(command, argv, proc.returncode, wall, usage.ru_maxrss / 1024,
                   stdout, stderr, cpu_s=usage.ru_utime + usage.ru_stime)


def run_in_process(command: str, argv: list[str]) -> Outcome:
    """Call mmdim.cli.main directly, capturing its output and exit code."""
    from mmdim import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            returned = cli.main(argv, standalone_mode=False)
        code = returned if isinstance(returned, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # the program's failure is this command's result
        code = getattr(exc, "exit_code", 1)
        err.write("".join(traceback.format_exception(exc)))
    wall = time.perf_counter() - start
    return Outcome(command, argv, code, wall, None, out.getvalue(), err.getvalue())


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and the children it starts, to the last CPU it may use."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class ReferenceLoad:
    """reference_load.py running beside the timed commands, on the same CPU.

    ``rate(start, end)`` is the rounds the load completed per second of its
    own CPU time over an interval of wall clock, taken between the last
    round that ended before ``start`` and the first that ended after
    ``end``.
    """

    def __init__(self, inputs: Inputs):
        self.expected = inputs.references["reference_load"]["checksum"]
        self.stamps: deque[tuple[float, float, int]] = deque(maxlen=100_000)
        self.lock = threading.Lock()  # the reader thread appends while rate() reads
        self.errors: list[str] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(REFERENCE_LOAD)],
            cwd=inputs.work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.wait_for(time.perf_counter())
        except RuntimeError:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            wall, cpu, rounds, checksum = line.split()
            if checksum != self.expected and len(self.errors) < 5:
                self.errors.append(f"reference: round {rounds} printed checksum "
                                   f"{checksum}, expected {self.expected}")
            with self.lock:
                self.stamps.append((float(wall), float(cpu), int(rounds)))

    def wait_for(self, moment: float) -> None:
        """Wait until a round has ended after `moment`."""
        deadline = time.perf_counter() + 10
        while not self._last_after(moment):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("reference load stopped printing rounds")
            time.sleep(0.001)

    def _last_after(self, moment: float) -> bool:
        with self.lock:
            return bool(self.stamps) and self.stamps[-1][0] >= moment

    def rate(self, start: float, end: float) -> float:
        self.wait_for(end)
        with self.lock:
            stamps = list(self.stamps)
        before = [s for s in stamps if s[0] <= start] or stamps[:1]
        first = before[-1]
        last = next(s for s in stamps if s[0] >= end)
        return (last[2] - first[2]) / (last[1] - first[1])

    def stop(self) -> Outcome:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        outcome = Outcome("reference", [str(REFERENCE_LOAD)], 0, 0.0, None, "", "")
        outcome.errors.extend(self.errors)
        return outcome


def checked(outcome: Outcome, check, inputs: Inputs) -> Outcome:
    if outcome.returncode != 0:
        outcome.errors.append(f"{outcome.command}: exit code {outcome.returncode}: "
                              f"{outcome.stderr.strip()[-500:]}")
    else:
        outcome.errors.extend(check(outcome, inputs))
    return outcome


def build_argv(inputs: Inputs, target: Path) -> list[str]:
    return ["build", str(inputs.spec_path), "-o", str(target)]


def check_build(outcome: Outcome, inputs: Inputs) -> list[str]:
    target = Path(outcome.argv[-1])
    if not target.is_file() or target.stat().st_size == 0:
        return [f"build: {target.name} was not written"]
    if target != inputs.system_path and target.read_bytes() != inputs.system_path.read_bytes():
        return [f"build: {target.name} differs from the first build of the same spec"]
    return []


def import_program() -> None:
    """Make this process import mmdim from the checkout, as the children do."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmdim.cli  # noqa: F401


def canonical_form(inputs: Inputs) -> Outcome:
    """The stored file is in the program's canonical JSON form.

    Together with the timed commands loading it (load_system rebuilds the
    system and rejects a file that differs from the rebuild), this is the
    load-then-dump round trip at the cost of one JSON parse.
    """
    from mmdim.specfile import canonical_dumps

    start = time.perf_counter()
    stored = inputs.system_path.read_text(encoding="utf-8")
    ok = canonical_dumps(json.loads(stored)) == stored
    outcome = Outcome("canonical_form", [str(inputs.system_path)], 0,
                      time.perf_counter() - start, None, "", "")
    if not ok:
        outcome.errors.append("system file is not in canonical JSON form")
    return outcome


def roundtrip(inputs: Inputs) -> Outcome:
    """Load the system file and dump it again: the bytes must not change."""
    from mmdim.specfile import canonical_dumps, load_system, read_json, system_to_jsonable

    start = time.perf_counter()
    outcome = Outcome("roundtrip", [str(inputs.system_path)], 0, 0.0, None, "", "")
    try:
        spec, system = load_system(read_json(str(inputs.system_path)))
        dumped = canonical_dumps(system_to_jsonable(system, spec))
    except Exception as exc:  # a file the program cannot load is a failed check
        outcome.errors.append(f"roundtrip: load failed: {exc!r}")
    else:
        if dumped != inputs.system_path.read_text(encoding="utf-8"):
            outcome.errors.append("roundtrip: reloaded system re-dumps to different bytes")
    outcome.wall_s = time.perf_counter() - start
    return outcome


# ---- the two modes -----------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timing_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": median(values), "samples": len(values)}
    if len(values) > 10:
        ordered = sorted(values)
        out[f"p{100 * (len(values) - 10) // len(values)}"] = ordered[len(values) - 11]
    return out


def setup(inputs: Inputs, outcomes: list[Outcome]) -> list[Outcome]:
    """Build the system file several times; the first copy is the one used."""
    builds: list[Outcome] = []
    while len(builds) < MIN_BUILDS or (
        len(builds) < MAX_BUILDS and sum(b.wall_s for b in builds) < SETUP_TARGET_S
    ):
        target = inputs.system_path if not builds else inputs.work / f"system-{len(builds)}.json"
        build = checked(run_child("build", build_argv(inputs, target), inputs.work),
                        check_build, inputs)
        builds.append(build)
        outcomes.append(build)
        if build.failed and not inputs.system_path.is_file():
            break
        if target != inputs.system_path:
            target.unlink(missing_ok=True)
    return builds


def run_timed(workload: Workload, inputs: Inputs, seconds: float):
    outcomes: list[Outcome] = []
    builds = setup(inputs, outcomes)
    if inputs.system_path.is_file():
        import_program()
        outcomes.append(canonical_form(inputs))
    # Passes repeat while another pass as long as the last one still fits in
    # `seconds`; the first pass always runs.
    passes: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    if inputs.system_path.is_file():
        with one_cpu():
            reference = ReferenceLoad(inputs)
            try:
                started = time.perf_counter()
                while not walls or time.perf_counter() - started + walls[-1] <= seconds:
                    cost = wall = cpu = 0.0
                    for step in workload.timed:
                        start = time.perf_counter()
                        outcome = run_child(step.command, step.args(inputs), inputs.work)
                        cost += outcome.cpu_s * reference.rate(start, time.perf_counter())
                        wall += outcome.wall_s
                        cpu += outcome.cpu_s
                        outcomes.append(checked(outcome, step.check, inputs))
                    passes.append(cost)
                    walls.append(wall)
                    cpus.append(cpu)
            finally:
                outcomes.append(reference.stop())
    size = inputs.system_path.stat().st_size if inputs.system_path.is_file() else 0
    metrics = {
        "setup_s": median([b.wall_s for b in builds]),
        "pass_cost": median(passes),
        "peak_rss_mb": max((o.peak_rss_mb or 0.0 for o in outcomes), default=0.0),
        "system_file_kb": size / 1024,
    }
    detail = {
        "setup_s": timing_summary([b.wall_s for b in builds]),
        "pass_cost": timing_summary(passes),
        "pass_wall_s": timing_summary(walls),
        "pass_cpu_s": timing_summary(cpus),
    }
    for step in workload.timed:
        detail[f"{step.command}_s"] = timing_summary(
            [o.wall_s for o in outcomes if o.command == step.command])
    return metrics, outcomes, detail


def run_traced(workload: Workload, inputs: Inputs, trace_path: Path):
    outcomes: list[Outcome] = []
    startup = []
    for _ in range(STARTUP_SAMPLES):
        help_run = run_child("help", ["--help"], inputs.work)
        outcomes.append(checked(help_run, lambda o, i: [] if "Usage" in o.stdout
                                else ["--help printed no usage"], inputs))
        startup.append(help_run.wall_s)
    import_program()

    per_command: dict[str, dict] = {}
    total = tracing.Tracer()

    def traced(command: str, argv: list[str], check, trace_file) -> Outcome:
        nonlocal total
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            root = tracer.open(f"cli.{command}")
            try:
                outcome = run_in_process(command, argv)
            finally:
                tracer.close(root)
        per_command[command] = {"wall_s": outcome.wall_s, **tracing.layer_metrics(tracer)}
        tracer.write_jsonl(trace_file, command)
        total = total.merged(tracer)
        return checked(outcome, check, inputs)

    with open(trace_path, "w", encoding="utf-8") as trace_file:
        # The build runs traced only; the overhead compares the timed commands.
        outcomes.append(traced("build", build_argv(inputs, inputs.system_path),
                               check_build, trace_file))
        outcomes.append(roundtrip(inputs))
        plain = [checked(run_in_process(step.command, step.args(inputs)), step.check, inputs)
                 for step in workload.timed]
        with_spans = [traced(step.command, step.args(inputs), step.check, trace_file)
                      for step in workload.timed]
    outcomes += plain + with_spans

    untraced_s = sum(o.wall_s for o in plain)
    overhead = sum(o.wall_s for o in with_spans) - untraced_s
    metrics = {
        "cli.startup_s": median(startup),
        **tracing.layer_metrics(total),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_s if untraced_s else 0.0,
    }
    detail = {
        "cli.startup_s": timing_summary(startup),
        "untraced_s": untraced_s,
        "traced_s": untraced_s + overhead,
        "per_command": per_command,
        "unwrapped_targets": total.missing,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, outcomes, detail


# ---- the record ---------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace, inputs: Inputs) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "click": _version("click"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "inputs": inputs.params,
        "spec": inputs.spec,
        "args": vars(args),
        "cleared_env": {name: os.environ.get(name) for name in CLEARED_ENV},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        references: dict, label: str | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (the printed result, the full record)."""
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    label = label or f"{workload.name}_seed{seed}_trace{int(trace)}"
    args = argparse.Namespace(workload=workload.name, seed=seed, seconds=seconds,
                              trace=int(trace))
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        spec, params = workload.make(seed)
        inputs = Inputs(spec, params, Path(tmp), references)
        inputs.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = environment(args, inputs)
        if trace:
            metrics, outcomes, detail = run_traced(workload, inputs,
                                                   results / f"TRACE_{label}.jsonl")
        else:
            metrics, outcomes, detail = run_timed(workload, inputs, seconds)
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0 and bool(outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        **env,
        "workload": workload.name,
        "error_rate": failed / len(outcomes) if outcomes else 1.0,
        "result": result,
        "detail": detail,
        "commands": [
            {"command": o.command, "argv": o.argv, "returncode": o.returncode,
             "wall_s": o.wall_s, "peak_rss_mb": o.peak_rss_mb, "errors": o.errors}
            for o in outcomes
        ],
    }
    (results / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")
    return result, record


def printable(result: dict, units: dict) -> dict:
    return {
        **result,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmdim" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'mmdim'}; run from a full checkout",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    result, record = run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
                         load_references())

    print(f"bench: {args.workload} seed={args.seed} inputs={record['inputs']} "
          f"commit={record['commit']} python={record['python']} nproc={record['nproc']}")
    print(f"bench: error_rate={record['error_rate']:.4g} "
          f"({result['failed']}/{result['attempted']} commands failed)")
    for o in record["commands"]:
        for error in o["errors"]:
            print(f"bench: FAILED {error}")
    for name, summary in record["detail"].items():
        if isinstance(summary, dict) and "median" in summary:
            print(f"bench: {name:<16} {json.dumps(summary)}")
    for command, layers in record["detail"].get("per_command", {}).items():
        busy = {k: round(v, 4) for k, v in layers.items() if k.endswith("_s") and v >= 0.01}
        print(f"bench: traced {command:<9} {json.dumps(busy)}")
    print(json.dumps(printable(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
