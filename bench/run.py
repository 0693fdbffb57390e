"""deeplinear benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

The workload's configs and ``.npy`` targets are generated from ``--seed``
(see ``gen.INPUT_SEEDS``) into a temporary directory under ``.bench_out/``,
and each command is driven in-process through ``deeplinear.cli.main(argv)``.
Passes over the workload's commands repeat until ``--seconds`` have
elapsed, and every command of every pass is checked against the recorded
reference in ``bench/reference/``.

``--trace 0`` prints the end-to-end metrics (see ``pass_time`` and
``timed_run``);
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (medians over the traced passes), with ``trace.overhead_s`` = traced
minus untraced pass wall time.
The last line of stdout is the JSON result; spans and a run summary go to
``.bench_out/``.

``--record`` instead runs one pass per input seed and rewrites the
workload's reference file.
"""

import os

# One BLAS thread, set before numpy loads: the matrices are tiny, and extra
# threads only add noise on a shared machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gen
import outcome
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Spans, run summaries and the generated inputs.  They stay inside the
# checkout, from which the benchmark reads and writes only.
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 32
MIN_PASSES = 3

# The speed probe: fixed numpy work, the kind of small-matrix linear algebra
# the workloads do, that touches no deeplinear code.  PROBE_REF_S is about
# its time on an idle 2-vCPU Intel Xeon (Haswell OpenBLAS kernel) with
# numpy 2.4.6; see ``Runner.run_pass`` for how it scales command times.
PROBE_MATRICES = np.random.default_rng(0).standard_normal((200, 6, 6))
PROBE_REF_S = 4.0e-3


def fail_usage(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "deeplinear" / "__init__.py").is_file():
        fail_usage(f"no deeplinear sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deeplinear
    import deeplinear.cli

    if Path(deeplinear.__file__).resolve().parent != (SRC / "deeplinear").resolve():
        fail_usage(f"imported deeplinear from {deeplinear.__file__}, not from {SRC}")
    return deeplinear


def setup_once() -> float:
    """Seconds from a fresh interpreter's start until ``import deeplinear`` returns."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import deeplinear"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {"by_key": {}}
    return json.loads(path.read_text())


def probe_once() -> float:
    """Seconds for one run of the speed probe."""
    t0 = time.perf_counter()
    for a in PROBE_MATRICES:
        u, s, vt = np.linalg.svd(a)
        np.linalg.norm(a - (u * s) @ vt)
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload's commands and checks every outcome."""

    def __init__(self, cli, commands, workdir: Path, reference: dict):
        self.cli = cli
        self.commands = commands
        self.workdir = workdir
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _outdir(self, i: int) -> Path:
        path = self.workdir / "out" / str(i)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run_pass(self, tracer=None) -> dict:
        """One pass; per-command wall and CPU seconds and the pass's work units.

        The speed probe runs before the first command and after each one.
        ``wall_idle`` and ``cpu_idle`` scale each command's time by
        ``PROBE_REF_S`` over the faster of the two probes around it: the
        command's time on the machine at its idle speed.  The shared machine
        the benchmark was built on ran at two speeds about 1.7x apart, in
        spells of seconds to minutes, often longer than a run.  In 40 s
        windows of one 160-200 s run per workload, at a noisy time, this cut
        the spread (IQR/median) of the sum of per-command minima from 0.34
        to 0.10 on the sweep, from 0.19 to 0.06 on the descent and from 0.08
        to 0.02 on the ledger.  Against the faster probe, so that a command
        that ran while the machine changed speed reads slow, not fast, and
        the per-command minimum passes it over.
        """
        wall, cpu = [], []
        probes = [probe_once()]
        units = 0
        for i, cmd in enumerate(self.commands):
            outdir = self._outdir(i)
            report = outcome.report_name(cmd.argv)
            if report:
                (outdir / f"{report}.json").unlink(missing_ok=True)
            os.environ["DEEPLINEAR_OUT"] = str(outdir)
            if tracer is not None:
                tracer.cmd = i
            t0, c0 = time.perf_counter(), time.process_time()
            code, stdout, err = outcome.run(self.cli.main, cmd.argv)
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            probes.append(probe_once())
            self.attempted += 1
            units += self._check(cmd, code, stdout, err, outdir)
        speed = [PROBE_REF_S / min(a, b) for a, b in zip(probes, probes[1:])]
        return {"wall": wall, "cpu": cpu, "probe": probes, "units": units,
                "wall_idle": [t * k for t, k in zip(wall, speed)],
                "cpu_idle": [t * k for t, k in zip(cpu, speed)]}

    def _check(self, cmd, code, stdout, err, outdir) -> int:
        """Record a failure if the outcome departs; return its work units."""
        if code is None:
            self.failures.append(f"{cmd.id}: raised {err}")
            return 0
        try:
            got = outcome.extract(cmd.argv, code, stdout, outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{cmd.id}: unreadable output: {type(exc).__name__}: {exc}")
            return 0
        want = self.reference["by_key"].get(cmd.key)
        diffs = outcome.differences(got, want) if want is not None else ["no reference for this command"]
        if cmd.id in self.first:
            diffs += [f"changed between passes: {d}" for d in outcome.differences(got, self.first[cmd.id])]
        else:
            self.first[cmd.id] = got
        if diffs:
            self.failures.append(f"{cmd.id}: " + "; ".join(diffs[:4]))
        return work_units(cmd, got)


def work_units(cmd, got: dict) -> int:
    """Sweep samples, GD steps, or 1 for any other command (see gen.WORK_UNITS)."""
    exact = got["exact"]
    if cmd.kind in ("verify-eb", "verify-plqg"):
        return exact.get("samples", 0)
    if cmd.kind == "reproduce-s4":
        return sum(row[2] for row in exact.get("rows", []))
    if cmd.kind == "train":
        return exact.get("n_steps", 0)
    return 1


def provenance(deeplinear, args, digest: str) -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        top, sha = git.stdout.split() if git.returncode == 0 else ("", None)
        git_sha = sha if Path(top).resolve() == ROOT else None
    except (OSError, ValueError):
        git_sha = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "deeplinear").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "package_version": getattr(deeplinear, "__version__", None),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.seed % gen.INPUT_SEEDS,
        "config_digest": digest,
    }


def pass_time(passes: list[dict], key: str, stat=min) -> float:
    """A pass built from each command's time over the passes, by ``stat``.

    The end-to-end times take each command's fastest run (``stat=min``,
    ``key`` ``wall_idle`` or ``cpu_idle``, see ``Runner.run_pass``): on a
    shared 2-vCPU machine other tenants slowed passes by up to 2x in spells
    of 5-60 s.  Over 25 s windows of one 240 s run of the generic sweep
    commands, the per-command minimum spread 12% (IQR/median) between
    windows and the median pass 28%; over 40 s windows, 4% and 20%.  Per
    command rather than per pass, so that a slow spell covering part of a
    pass does not cost the rest of that pass.
    """
    return sum(stat(t) for t in zip(*(p[key] for p in passes)))


def keep_going(t_end: float, done: list, need: int, per_round: int = 1) -> bool:
    """At least half of another round fits before ``t_end``, or too few ran."""
    if len(done) < need:
        return True
    return time.perf_counter() + 0.5 * per_round * pass_time(done, "wall", statistics.median) < t_end


def timed_run(runner: Runner, seconds: float) -> dict:
    """Passes until ``seconds`` elapse, with ``SETUP_SAMPLES`` set-up samples.

    After each pass, set-up is sampled until the samples keep pace with the
    elapsed share of the window, so that their median sees the same machine
    as the passes do.  The first sample may compile the bytecode cache and
    is discarded.  Set-up time is not scaled by the speed probe.
    """
    setup_once()
    passes, setup = [], []
    t0 = time.perf_counter()
    t_end = t0 + seconds
    while keep_going(t_end, passes, MIN_PASSES):
        passes.append(runner.run_pass())
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - t0) / seconds)
        while len(setup) < due:
            setup.append(setup_once())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_once())
    wall = pass_time(passes, "wall_idle")
    return {
        "passes": passes,
        "setup_s_samples": setup,
        "unscaled_s": {"wall": pass_time(passes, "wall"), "cpu": pass_time(passes, "cpu"),
                       "median_pass_wall": pass_time(passes, "wall", statistics.median)},
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": pass_time(passes, "cpu_idle"),
            "work_per_s": passes[0]["units"] / wall,
        },
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    tracer = spans.Tracer()
    plain, traced, layer = [], [], []
    t_end = time.perf_counter() + seconds
    while keep_going(t_end, traced, 2, per_round=2):
        plain.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        layer.append(spans.layer_metrics(tracer))
    metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    metrics["trace.overhead_s"] = pass_time(traced, "wall_idle") - pass_time(plain, "wall_idle")
    return {"plain": plain, "traced": traced, "layer": layer, "metrics": metrics,
            "tracer": tracer}


def write_spans(path: Path, tracer, commands) -> None:
    spans_out = tracer.spans
    t0 = spans_out[0][1] if spans_out else 0.0
    payload = {
        "fields": ["name", "start_s", "end_s", "parent", "command"],
        "commands": [c.id for c in commands],
        "missing": tracer.missing,
        "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, c] for n, s, e, p, c in spans_out],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def record(workload: str, cli) -> None:
    """Rewrite the reference of one workload from one pass per input seed."""
    by_key = {}
    for seed in range(gen.INPUT_SEEDS):
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
            workdir = Path(tmp)
            commands, _ = gen.generate(workload, seed, workdir)
            for i, cmd in enumerate(commands):
                outdir = workdir / "out" / str(i)
                outdir.mkdir(parents=True)
                os.environ["DEEPLINEAR_OUT"] = str(outdir)
                code, stdout, err = outcome.run(cli.main, cmd.argv)
                if code is None:
                    raise SystemExit(f"seed {seed}: {cmd.id} raised {err}")
                by_key[cmd.key] = {"id": cmd.id, **outcome.extract(cmd.argv, code, stdout, outdir)}
        print(f"recorded seed {seed}", file=sys.stderr)
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seeds": list(range(gen.INPUT_SEEDS)),
        "rtol": outcome.RTOL,
        "atol": outcome.ATOL,
        "by_key": by_key,
    }
    (REFERENCE_DIR / f"{workload}.json").write_text(dump_reference(payload))


def dump_reference(payload: dict) -> str:
    """JSON with one line per reference entry, so a diff names the command."""
    parts = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items()))
            parts.append(f"{json.dumps(key)}: {{\n{body}\n}}")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail_usage(f"no BENCHMARK.json in {ROOT}")
    deeplinear = import_package()
    cli = sys.modules["deeplinear.cli"]
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        record(args.workload, cli)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        commands, digest = gen.generate(args.workload, args.seed, workdir)
        runner = Runner(cli, commands, workdir, load_reference(args.workload))
        if args.trace:
            res = traced_run(runner, args.seconds)
            write_spans(OUT_DIR / f"spans-{tag}.json", res.pop("tracer"), commands)
            values = res["metrics"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            res = timed_run(runner, args.seconds)
            values = {
                **res["metrics"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    os.environ.pop("DEEPLINEAR_OUT", None)

    failed = len(runner.failures)
    prov = provenance(deeplinear, args, digest)
    summary = {
        "provenance": prov,
        "work_unit": gen.WORK_UNITS[args.workload],
        "commands_per_pass": len(commands),
        "error_rate": failed / runner.attempted,
        **{k: v for k, v in res.items() if k != "metrics"},
        "failures": runner.failures,
        "metrics": values,
    }
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(summary, indent=1, default=str))

    for f in runner.failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"provenance: {json.dumps(prov, sort_keys=True, default=str)}")
    n = len(res.get("passes", res.get("traced", [])))
    print(f"{args.workload} seed={args.seed} passes={n} commands/pass={len(commands)} "
          f"work unit={gen.WORK_UNITS[args.workload]}")
    print(f"  {'error_rate':<36} {failed / runner.attempted:>14.6g} ratio "
          f"({failed} failed of {runner.attempted} attempted)")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")
    if "unscaled_s" in res:
        raw = res["unscaled_s"]
        print(f"  unscaled: wall {raw['wall']:.6g} s, cpu {raw['cpu']:.6g} s, median pass wall "
              f"{raw['median_pass_wall']:.6g} s (speed probe reference {PROBE_REF_S:g} s)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
