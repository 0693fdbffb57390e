"""Workload inputs, generated from the workload seed.

Each workload is a fixed list of ``deeplinear`` CLI commands.  The seed moves
only the instance realisations: orthogonal frames, jittered singular values,
regularization weights and the seeds written into the configs.  The shape of
every instance, and so the work in one pass, stays the same from seed to
seed, which keeps pass times comparable across seeds.

Targets are written as ``.npy`` files and configs as JSON into a work
directory; the program only ever sees those files and the argv.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "descent", "ledger")

# Work unit of each workload, as counted by ``run.work_units``.
WORK_UNITS = {"sweep": "sweep samples", "descent": "GD steps", "ledger": "commands"}

# Seed n generates the inputs of seed n mod INPUT_SEEDS; bench/reference
# holds the full outcome of every one of them, so every run's numbers are
# checked, whatever its seed.
INPUT_SEEDS = 16

# The CLI's default radii (verify.SweepConfig), but 16 samples per radius
# where the default is 64: 144 projections per command instead of 576.  A
# pass then takes about 2.5 s, so a 40 s run times each command about ten
# times, and its fastest run is steady on a shared machine.  The price is
# that per-command costs (centre construction, profile enumeration) weigh
# about four times as much against the per-sample work as in a default sweep.
RADII = {"start": 1e-5, "stop": 1e-1, "num": 9}
SAMPLES_PER_RADIUS = 16


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    key: str = ""  # digest of the argv and every file it reads

    @property
    def kind(self) -> str:
        return self.argv[0]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def target_matrix(rng, d_out: int, d_in: int, values) -> np.ndarray:
    """``U diag(values) V^T`` with Haar-random frames."""
    u, v = _haar(rng, d_out), _haar(rng, d_in)
    r = len(values)
    return u[:, :r] @ np.diag(values) @ v[:, :r].T


def excluded_lambda(y: float, depth: int) -> float:
    """Product weight at which y's stationarity equation has a double root.

    Written out here, independently of the program, so that the benchmark's
    degenerate inputs do not depend on the code under test.
    """
    L = depth
    if L == 2:
        return y * y
    a = ((L - 2) / L) ** (L / (2 * (L - 1)))
    b = (L / (L - 2)) ** ((L - 2) / (2 * (L - 1)))
    return y ** (2 * (L - 1)) * (a + b) ** (-2 * (L - 1))


class Writer:
    """Writes the generated files of one workload into ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.files: dict[str, bytes] = {}
        self.deps: dict[str, str] = {}

    def target(self, name: str, matrix: np.ndarray) -> str:
        path = self.workdir / f"{name}.npy"
        np.save(path, matrix)
        self.files[str(path)] = path.read_bytes()
        return str(path)

    def config(self, name: str, payload: dict) -> str:
        path = self.workdir / f"{name}.json"
        text = json.dumps(payload, indent=1, sort_keys=True)
        path.write_text(text)
        self.files[str(path)] = text.encode()
        target = payload.get("instance", {}).get("target", {}).get("path")
        if target:
            self.deps[str(path)] = target
        return str(path)

    def _normal(self, data: bytes) -> bytes:
        return data.replace(str(self.workdir).encode(), b"<work>")

    def key(self, argv) -> str:
        """Digest of a command's inputs, independent of the work dir."""
        h = hashlib.sha256(self._normal(repr(tuple(argv)).encode()))
        for arg in argv:
            for path in (arg, self.deps.get(arg)):
                if path in self.files:
                    h.update(self._normal(self.files[path]))
        return h.hexdigest()[:20]


def _instance(dims, lambdas, target_path) -> dict:
    return {
        "dims": list(dims),
        "lambdas": [float(x) for x in lambdas],
        "target": {"kind": "file", "path": target_path},
    }


def _sweep_generic(seed: int, w: Writer) -> list[Command]:
    # Distinct, well separated singular values: every repeated-value block has
    # size 1 and the optimal centre sits well inside the error-bound regime.
    # One command per depth, alternating verify-eb and verify-plqg, to keep
    # the pass short.  The weights are fixed, so that the number of sigma
    # profiles, and so the work of a pass, does not change with the seed.
    shapes = {2: ((5, 7, 4), "verify-eb"), 3: ((5, 6, 6, 4), "verify-plqg"), 5: ((4, 5, 5, 5, 5, 4), "verify-eb")}
    cmds = []
    for depth, (dims, command) in shapes.items():
        rng = _rng(seed, f"generic-{depth}")
        rank = min(dims[0], dims[-1])
        base = np.linspace(2.4, 0.9, rank)
        values = base * (1.0 + 0.04 * rng.uniform(-1.0, 1.0, rank))
        y = w.target(f"generic-L{depth}", target_matrix(rng, dims[-1], dims[0], values))
        lambdas = np.linspace(0.55, 0.85, depth)
        cfg = {
            "seed": int(rng.integers(2**31)),
            "instance": _instance(dims, lambdas, y),
            "sweep": {"radii": RADII, "samples_per_radius": SAMPLES_PER_RADIUS, "center": "optimal", "target": "F"},
        }
        path = w.config(f"generic-L{depth}", cfg)
        cmds.append(Command(f"{command}-L{depth}", (command, path)))
    return cmds


def _sweep_structured(seed: int, w: Writer) -> list[Command]:
    # Repeated singular values force the real block Procrustes update; rank 6
    # at depth >= 3 makes the profile enumeration (and so the per-profile
    # lower-bound loop) large.
    specs = [
        # name, dims, block values, block sizes, centre, geometry, command, mode
        ("s3", (6, 7, 7, 6), (3.0, 2.0, 1.5), (2, 2, 2), "saddle", "G", "verify-plqg", "singular-direction"),
        ("z4", (5, 6, 6, 6, 5), (2.5, 1.2), (3, 2), "zero", "G", "verify-eb", "tangent-removed"),
    ]
    cmds = []
    for name, dims, blocks, sizes, center, geom, command, mode in specs:
        rng = _rng(seed, f"structured-{name}")
        jitter = 1.0 + 0.04 * rng.uniform(-1.0, 1.0, len(blocks))
        values = np.repeat(np.asarray(blocks) * jitter, sizes)
        y = w.target(f"structured-{name}", target_matrix(rng, dims[-1], dims[0], values))
        lambdas = np.linspace(0.55, 0.85, len(dims) - 1)
        cfg = {
            "seed": int(rng.integers(2**31)),
            "instance": _instance(dims, lambdas, y),
            "sweep": {"radii": RADII, "samples_per_radius": SAMPLES_PER_RADIUS, "center": center,
                      "target": geom, "mode": mode},
        }
        cid = f"{command}-{name}-{center}-{geom}-{mode}"
        cmds.append(Command(cid, (command, w.config(cid, cfg))))
    return cmds


# reproduce-s4 builds its own instance from the config seed, and its step
# count swings widely with that seed (seed 5 takes 6x the steps of seed 0).
# Its config seed is therefore taken from these seeds, screened to need
# 19.5k-20.5k steps over depths 2, 4 and 6; input seed n uses entry n mod 7.
S4_POOL = [1, 6, 11, 17, 18, 24, 34]


def _descent(seed: int, w: Writer) -> list[Command]:
    rng = _rng(seed, "descent")
    s4 = w.config("s4", {"seed": S4_POOL[seed % len(S4_POOL)]})
    # One command per depth: shorter commands, each timed on its own.
    cmds = [Command(f"reproduce-s4-L{d}", ("reproduce-s4", s4, "--depths", str(d))) for d in (2, 4, 6)]
    dims = (8, 16, 16, 6)
    values = np.linspace(2.0, 0.6, 6) * (1.0 + 0.04 * rng.uniform(-1.0, 1.0, 6))
    y = w.target("descent", target_matrix(rng, dims[-1], dims[0], values))
    models = {
        "train-tanh": ({"kind": "nonlinear", "activation": "tanh", "input": {"kind": "uniform"}}, 1e-3),
        "train-bias": ({"kind": "linear-with-bias"}, 1e-2),
    }
    for cid, (model, lr) in models.items():
        cfg = {
            "seed": int(rng.integers(2**31)),
            "instance": _instance(dims, rng.uniform(0.05, 0.1, 3), y),
            "model": model,
            "train": {"learning_rate": lr, "max_iters": 3000, "init": "uniform-fan-based"},
        }
        cmds.append(Command(cid, ("train", w.config(cid, cfg))))
    return cmds


def _ledger(seed: int, w: Writer) -> list[Command]:
    rng = _rng(seed, "ledger")
    cmds = []
    # One instance per (depth, rank); the excluded and near-excluded ones put
    # the product weight exactly at, or 1e-6 relative below, the value where
    # the smallest singular value's equation has a double root.
    plan = [(L, r, "generic") for L in (2, 3, 4, 5, 6) for r in (3, 4, 5, 6) if (L + r) % 2 == 0]
    plan += [(2, 3, "excluded"), (4, 4, "excluded"), (3, 5, "near"), (5, 3, "near")]
    for k, (L, r, kind) in enumerate(plan):
        name = f"ledger-{k}-L{L}-r{r}-{kind}"
        values = np.sort(np.linspace(1.0, 2.6, r) * (1.0 + 0.04 * rng.uniform(-1.0, 1.0, r)))[::-1]
        dims = (r,) + (r + 1,) * (L - 1) + (r + int(rng.integers(0, 2)),)
        y = w.target(name, target_matrix(rng, dims[-1], dims[0], values))
        if kind == "generic":
            lam = rng.uniform(0.3, 0.8) * excluded_lambda(float(values[-1]), L)
        else:
            lam = excluded_lambda(float(values[-1]), L) * (1.0 if kind == "excluded" else 1.0 - 1e-6)
        lambdas = [lam ** (1.0 / L)] * L
        path = w.config(name, {"seed": int(rng.integers(2**31)), "instance": _instance(dims, lambdas, y)})
        cmds.append(Command(f"{name}/check-assumptions", ("check-assumptions", path)))
        cmds.append(Command(f"{name}/constants", ("constants", path)))
        if kind == "generic":
            cmds.append(Command(f"{name}/constants-p{k % 3}", ("constants", path, "--profile", str(k % 3))))
        cmds.append(Command(
            f"{name}/roots",
            ("roots", "--y", repr(float(values[-1])), "--lambda", repr(lam), "--L", str(L), "--json"),
        ))
    # The depth-3 fit confirms its quadratic law for y above about 1.3 and
    # misses it (exit 1) below, where the fixed t-window is too wide; one
    # command on each side keeps both outcomes in the reference.
    for cid, kind, lo, hi in (("l2", "l2", 1.0, 3.0), ("lge3", "lge3", 1.5, 3.0), ("lge3-small-y", "lge3", 0.5, 1.1)):
        y = float(np.round(rng.uniform(lo, hi), 6))
        cmds.append(Command(f"counterexample-{cid}", ("counterexample", "--kind", kind, "--y", repr(y), "--fit")))
    return cmds


def generate(workload: str, seed: int, workdir: Path) -> tuple[list[Command], str]:
    """Write the inputs of ``seed mod INPUT_SEEDS``; return the commands and their digest."""
    seed %= INPUT_SEEDS
    w = Writer(workdir)
    if workload == "sweep":
        # Generic targets have only size-1 repeated-value blocks, where the
        # projection's Procrustes factors reduce to signs; the structured ones
        # have blocks of 2-3 that need a real SVD.  Both in one workload, so
        # that a change trading one for the other shows in the same numbers.
        cmds = _sweep_generic(seed, w) + _sweep_structured(seed, w)
    elif workload == "descent":
        cmds = _descent(seed, w)
    elif workload == "ledger":
        cmds = _ledger(seed, w)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cmds = [Command(c.id, c.argv, w.key(c.argv)) for c in cmds]
    digest = hashlib.sha256("".join(c.key for c in cmds).encode()).hexdigest()
    return cmds, digest
