"""Helpers the tools share: unpack another git revision, count a tree's
package lines, and a work directory.

Only the local repository is read; nothing is fetched.
"""
from __future__ import annotations

import io
import subprocess
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, paths: list[str], dest: Path) -> str:
    """Extract `paths` of the commit `rev` names into `dest` with `git archive`,
    and return the commit's full id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, *paths],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def src_lines(tree: Path) -> int:
    """The lines of `src/marketgraph/*.py` under `tree`, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in sorted(Path(tree).glob("src/marketgraph/*.py")))


@contextmanager
def work_directory(given: str | None, prefix: str):
    """The directory `given`, made if missing and kept; or, if None, a new
    temporary directory that is removed on exit."""
    if given:
        path = Path(given).resolve()
        path.mkdir(parents=True, exist_ok=True)
        yield path
    else:
        with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
            yield Path(tmp).resolve()
