"""pilotwave benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload simulate_fig1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs the workload's operations through ``pilotwave.cli.main(argv)`` in
this process for --seconds, checks every output, and prints a report
followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  While an untraced operation runs, a fixed kernel samples
the machine's speed, and the gated walls are rescaled to its reference
speed (see calibration.py).  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 half the time runs untraced, the other half replays the same
inputs with every layer wrapped (see layers.py), and the metrics are
the per-layer ones plus the tracing overhead.  The full record (every
wall, work counters, output digests, environment) is written to
``.perfbench/results/``.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 20260819
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "ref_wall_s": "s",
    "ref_traj_tau_per_s": "traj_tau/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


def _high_percentile(walls):
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(walls)
    if n < 11:
        return None
    ordered = sorted(walls)
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


def _measure_setup(workload):
    """Walls of fresh interpreters doing import, config load and derive_drive."""
    cmd = [sys.executable, "-c", workload.setup_probe()]
    walls, loads = [], []
    # The first probe is untimed: it may compile the package's bytecode.
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr)
        if i:
            walls.append(wall)
            loads.append(json.loads(proc.stdout.splitlines()[-1])["load_s"])
    return walls, loads


class _Runner:
    """Runs operations, checks their outputs and keeps the per-op records."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.digests = {}
        self.ops = 0

    def run(self, main, index, sample):
        """One operation; with sample, its wall excludes and is rescaled by
        the machine-speed samples taken while it ran (calibration.py)."""
        import calibration

        wl = self.workload
        key = wl.key(index)
        out = self.workdir / ("op%04d" % (self.ops,))
        out.mkdir()
        self.ops += 1
        rec = {"index": index, "key": key, "problems": []}
        sink = io.StringIO()
        gc.collect()
        sampler = calibration.Sampler() if sample else None
        if sampler:
            sampler.start()
        raised = False
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, stdout = wl.run(main, key, out)
        except (Exception, SystemExit):
            rec["problems"].append("exception: " + traceback.format_exc(limit=3))
            raised = True
        finally:
            if sampler:
                sampler.stop()
            rec["wall"] = time.perf_counter() - t0
        if sampler:
            rec["wall"] -= sampler.interrupt_s
            rec["kernel_s"] = sampler.kernel_s()
            rec["speed_samples"] = len(sampler.samples)
        if raised:
            shutil.rmtree(out, ignore_errors=True)
            return rec
        rec["exit_code"] = code
        try:
            if code != 0:
                rec["problems"].append("exit code %r: %s" % (code, sink.getvalue()[-500:]))
            else:
                rec["problems"] += wl.check(out, stdout)
                rec["digest"] = wl.digest(out, stdout)
                rec["counters"] = wl.counters(out, stdout)
                rec["dropouts"] = wl.dropouts(out)
                first = self.digests.setdefault(key, rec["digest"])
                rec["repeatable"] = rec["digest"] == first
                if not rec["repeatable"]:
                    rec["problems"].append("output differs from an earlier run of input %r" % (key,))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["problems"].append("unreadable output: %r" % (exc,))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rec

    def phase(self, main, budget, indices, sample=False):
        """Run indices in order while the phase is inside its time budget."""
        recs = []
        t0 = time.perf_counter()
        for index in indices:
            if recs and time.perf_counter() - t0 >= budget:
                break
            recs.append(self.run(main, index, sample))
        return recs


def measure(args, workdir):
    import calibration
    import layers
    import workloads

    wl = workloads.make(args.workload, args.seed, workdir)
    setup_walls, load_s = _measure_setup(wl)

    import numpy
    import pilotwave.cli as cli

    runner = _Runner(wl, workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = runner.phase(cli.main, budget, itertools.count(), sample=True)
    # Every run repeats at least one input, so determinism is checked.
    if len({r["key"] for r in plain}) == len(plain):
        plain.append(runner.run(cli.main, plain[0]["index"], True))

    traced = []
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced_main = tracer.wrap("cli.main", cli.main)
            traced = runner.phase(traced_main, budget, [r["index"] for r in plain])
        finally:
            tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = plain + traced
    failed = sum(1 for r in records if r["problems"])
    walls = [r["wall"] for r in plain]
    kernels = [r["kernel_s"] for r in plain]
    ref_walls = [w * calibration.REF_S / k for w, k in zip(walls, kernels)]
    dropped = sum(r.get("dropouts", (0, 0))[0] for r in records)
    tried = sum(r.get("dropouts", (0, 0))[1] for r in records)

    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "dropout_frac": dropped / tried if tried else None,
        "walls_s": walls,
        "wall_s": statistics.median(walls),
        "wall_s_high": _high_percentile(walls),
        "kernel_walls_s": kernels,
        "speed_samples": [r["speed_samples"] for r in plain],
        "kernel_ref_s": calibration.REF_S,
        "ref_walls_s": ref_walls,
        "ref_wall_s": statistics.median(ref_walls),
        "ref_wall_s_high": _high_percentile(ref_walls),
        "setup_walls_s": setup_walls,
        "config_load_s": load_s,
        "digest": plain[0].get("digest"),
        "digests": {str(k): d for k, d in runner.digests.items()},
        "deterministic": all(r.get("repeatable", True) for r in records),
        "work_counters": plain[0].get("counters", {}),
        "problems": [p for r in records for p in r["problems"]],
        "operations": [
            {k: r.get(k) for k in ("index", "key", "wall", "exit_code", "counters", "problems")}
            for r in records
        ],
    }
    if args.trace:
        n = len(traced)
        paired = sum(r["wall"] for r in plain[:n])
        overhead = sum(r["wall"] for r in traced) / paired - 1.0
        result["traced_walls_s"] = [r["wall"] for r in traced]
        result["metrics"] = tracer.per_layer(n, overhead, statistics.median(load_s))
        units = layers.PER_LAYER_UNITS
    else:
        result["metrics"] = {
            "ref_wall_s": result["ref_wall_s"],
            "ref_traj_tau_per_s": wl.traj_tau / result["ref_wall_s"],
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result["units"] = {k: units[k] for k in result["metrics"]}
    return result


def _report(res):
    print("perfbench %s: seed %d, %g s, trace %d" % (res["workload"], res["seed"], res["seconds"], res["trace"]))
    env = res["environment"]
    print("  environment: nproc %s, python %s, numpy %s, %s" % (env["nproc"], env["python"], env["numpy"], env["machine"]))
    n = len(res["walls_s"])
    print("  untraced: median wall %.6f s over %d operations" % (res["wall_s"], n))
    print("  calibration kernel: median %.6f s, reference %.6f s"
          % (statistics.median(res["kernel_walls_s"]), res["kernel_ref_s"]))
    for name in ("wall_s", "ref_wall_s"):
        if res[name + "_high"]:
            print("  %s_p%d: %.6f s" % ((name,) + tuple(res[name + "_high"])))
        else:
            print("  %s high percentile: needs 11 operations, ran %d" % (name, n))
    print("  work per operation: %s" % (json.dumps(res["work_counters"], sort_keys=True),))
    print("  fail_frac: %r (%d of %d operations)" % (res["fail_frac"], res["failed"], res["attempted"]))
    if res["dropout_frac"] is not None:
        print("  dropout_frac: %r" % (res["dropout_frac"],))
    print("  deterministic repeats: %s; digest %s" % (res["deterministic"], res["digest"]))
    for p in res["problems"][:10]:
        print("  problem: %s" % (p.strip().replace("\n", " | "),))
    for name, value in res["metrics"].items():
        print("  %-44s %.6g %s" % (name, value, res["units"][name]))


def _run_all(args):
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "pilotwave" / "cli.py").is_file():
        print("perfbench: no pilotwave sources under %s" % (SRC,), file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        res = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = WORK / "results" / ("%s-seed%d-trace%d.json" % (res["workload"], res["seed"], res["trace"]))
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _report(res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
