"""The manifest every ledger result carries: which workload, seed,
sizes, code and machine produced it."""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import typing as t


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: pathlib.Path) -> str:
    """HEAD of the checkout, read from ``.git`` without starting git;
    ``unknown`` in an exported tree (``source_sha256`` still names the
    code)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_sha256(root: pathlib.Path) -> str:
    """Digest of every ``.py`` file under ``src/repro``, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict[str, t.Any]:
    return {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version()}


def manifest(root: pathlib.Path, workload: t.Any, seed: int,
             seconds: float, repeats: dict[str, int]) -> dict[str, t.Any]:
    return {
        "workload": workload.name, "seed": seed, "sizes": workload.sizes,
        "slice_ns": workload.slice_ns, "seconds": seconds, **repeats,
        "commit": commit(root), "source_sha256": source_sha256(root),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        **machine(),
    }
