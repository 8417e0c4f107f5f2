"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-figure8 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``windows_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` prints the per-layer
metrics of one traced run.  The line before the result is the run
context (backend, kernel tier, versions, calibration time).

This process imports nothing from ``src/``.  It byte-compiles the
sources, then starts a fresh interpreter per measurement — set-up
probes, the steady-state measurement or the traced run, see
``perfbench/measure.py`` — each with an empty permutation cache of its
own under ``.perfbench-work/`` in the checkout, removed on exit.
``setup_s`` is the median of the measurement's own set-up and
:data:`SETUP_PROBES` more cold starts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import clock  # noqa: E402  (needs ROOT on the path)
from perfbench.names import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SINGLE_PROCESS,
    WORKLOAD_NAMES,
)
WORK = ROOT / ".perfbench-work"

#: Extra cold starts timed for the ``setup_s`` median.
SETUP_PROBES = 2

#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--role", choices=("probe", "measure", "trace"), help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child side: one measurement in a fresh interpreter
# ----------------------------------------------------------------------


def _child(args) -> int:
    sys.path.insert(0, str(SRC))
    cpus = None
    if args.workload in SINGLE_PROCESS:
        cpus = {min(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpus)
    with clock.Calibrator(cpus) as calibrator:
        before = calibrator.loop_s()
        started = time.perf_counter()
        from perfbench import measure

        import repro

        if not Path(repro.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        smoke = args.scale == "smoke"
        if args.role == "probe":
            payload = measure.probe(
                args.workload, args.seed, smoke, started, before, calibrator
            )
        elif args.role == "measure":
            payload = measure.measure(
                args.workload, args.seed, args.seconds, smoke, started, before,
                calibrator,
            )
        else:
            payload = measure.trace(
                args.workload, args.seed, args.seconds, smoke, calibrator
            )
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# Parent side: orchestration and the result line
# ----------------------------------------------------------------------


def _calibration_s() -> float:
    """Best of five timings of the fixed calibration loop."""
    with clock.Calibrator() as calibrator:
        return min(calibrator.loop_s() for _ in range(5))


def _revision() -> dict:
    """The git revision when the checkout has one, and a source digest."""
    revision = "unavailable"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            revision = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            revision = ref
    except OSError:
        pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_revision": revision, "source_sha1": digest.hexdigest()}


def _spawn(args, role: str, work: Path, deadline: float) -> dict:
    """Run one child role to completion; its last stdout line is JSON."""
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    env = dict(os.environ)
    env.pop("REPRO_METRICS", None)
    # Same string hashing in every run: one less source of run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache)
    env["TMPDIR"] = str(work)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--scale", args.scale,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {role} run")
    # A session of its own, so a timeout also stops the child's workers.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=remaining)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{role} run exited with code {child.returncode}")
    return json.loads(lines[-1])


def _orchestrate(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir(str(SRC), quiet=1)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            run = _spawn(args, "trace", work, deadline)
        else:
            run = _spawn(args, "measure", work, deadline)
            probes = [
                _spawn(args, "probe", work, deadline) for _ in range(SETUP_PROBES)
            ]
            setups = [run["metrics"]["setup_s"]] + [p["setup_s"] for p in probes]
            walls = [run["context"]["wall_setup_s"]]
            walls += [p["wall_setup_s"] for p in probes]
            run["metrics"]["setup_s"] = statistics.median(setups)
            run["context"]["setup_samples_s"] = setups
            run["context"]["wall_setup_s"] = statistics.median(walls)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    context = dict(run["context"])
    context.update(_revision())
    context["calibration_s"] = _calibration_s()
    context["nproc"] = len(os.sched_getaffinity(0))
    context["workload"] = args.workload
    context["calls"] = run["calls"]
    context["oracle_sessions"] = run["oracle_sessions"]
    print(json.dumps({"context": context}))
    metrics = {
        name: {"value": run["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0 and run["attempted"] > 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role:
        return _child(args)
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
