"""Run context, the benchmark's on-disk store and the naive reference
cache.

Everything the benchmark writes goes under ``.perfbench/`` in the root
of the checkout it runs in (ignored by git):

* ``naive/<kernel digest>/<molecule fingerprint>.json`` — exact
  reference energies, keyed by the molecule's array fingerprint and by
  a digest of the naive kernels' source, so a change to those kernels
  never reads a stale reference;
* ``determinism/<run key>/<workload>-<seed>.json`` — what a run
  produced for its seed, so a later run with the same program,
  benchmark code and ``--seconds`` can check that it produced the same
  stream and the same energies;
* ``results/<workload>-seed<seed>-trace<t>.json`` — the full record of
  the last run of each kind.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STORE = ROOT / ".perfbench"

#: Files whose code computes the exact reference energy.
NAIVE_KERNELS = ("core/born_naive.py", "core/energy_naive.py",
                 "core/gb.py", "core/solver.py")


def tree_digest(paths: List[Path]) -> str:
    """SHA-256 over the relative names and bytes of ``paths``."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program under test (every ``src/**/*.py``)."""
    return tree_digest(list(SRC.rglob("*.py")))


def bench_digest() -> str:
    """Digest of the benchmark's own code."""
    return tree_digest(list((ROOT / "perfbench").rglob("*.py")))


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    None in a checkout that is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ", 1)[0]
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_context(workload: str, seed: int, seconds: int,
                trace: bool) -> Dict[str, object]:
    """What a result needs to be compared with another one."""
    import numpy
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "bench_sha256": bench_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def finish_context(ctx: Dict[str, object]) -> None:
    """Record the end-of-run load and flag a run taken on a machine
    busier than its core count."""
    ctx["loadavg_end"] = os.getloadavg()[0]
    ctx["overloaded"] = max(float(ctx["loadavg_start"]),
                            float(ctx["loadavg_end"])) > int(ctx["nproc"])


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident memory of this process in MiB, plus ``children``
    times the largest peak among its reaped child processes (the
    kernel reports only the largest child, so this bounds their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * kids) / 1024.0


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


class NaiveReferences:
    """Exact energies keyed by the molecule's array fingerprint.

    Callers compute these after every timed region has closed; the
    cache only spares a repeat run of the same seed the O(M·N) cost.
    """

    def __init__(self) -> None:
        kernels = [SRC / "repro" / k for k in NAIVE_KERNELS]
        self.directory = STORE / "naive" / tree_digest(kernels)[:16]
        self.computed = 0
        self.reused = 0

    def energy(self, molecule, compute: Callable[[], float]) -> float:
        from repro.core.fingerprint import arrays_fingerprint
        surf = molecule.require_surface()
        key = arrays_fingerprint(
            molecule.positions, molecule.charges, molecule.radii,
            surf.points, surf.normals, surf.weights)
        path = self.directory / f"{key}.json"
        doc = _read_json(path)
        if doc is not None and "energy_hex" in doc:
            self.reused += 1
            return float.fromhex(doc["energy_hex"])
        energy = float(compute())
        self.computed += 1
        _write_json(path, {"energy_hex": energy.hex(),
                           "natoms": int(molecule.natoms)})
        return energy


class DeterminismStore:
    """What earlier runs of the same program, benchmark and arguments
    produced.

    :meth:`check` merges ``observed`` into the stored record and returns
    the keys whose stored value differs — a nonempty answer means the
    same seed gave different inputs or different energies.
    """

    def __init__(self, workload: str, seed: int, run_key: str) -> None:
        self.path = (STORE / "determinism" / run_key
                     / f"{workload}-{seed}.json")

    def check(self, observed: Dict[str, str]) -> List[Tuple[str, str, str]]:
        stored = _read_json(self.path) or {}
        clashes = [(k, stored[k], v) for k, v in sorted(observed.items())
                   if k in stored and stored[k] != v]
        if not clashes:
            stored.update(observed)
            _write_json(self.path, stored)
        return clashes


def save_result(workload: str, seed: int, trace: bool,
                doc: Dict[str, object]) -> Path:
    path = STORE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    _write_json(path, doc)
    return path
