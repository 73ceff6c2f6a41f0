"""The one content-addressed store: atomic publish, fan-out layout, one key.

Served result bytes, sweep shard records and compiled topology
artifacts are all :class:`Store` entries at ``root/<key[:2]>/<key>``.
Every key comes from :func:`store_key`: the sha256 of canonical JSON
over the entry's namespace (which carries its format), the
:func:`code_version`, the parameters, and the sha256 of the bytes of
every input file (the fields marked :data:`~repro.envelope.INPUT_FILE`).
A code change or an edited parameter or input file changes the key, so
a cache may miss but never replays bytes computed from anything else.

:func:`publish` is the one crash-safe write: a uniquely named temp
sibling (a file or a directory) is filled, then installed by one
rename, so a reader sees no entry or the complete one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

from repro.envelope import INPUT_FILE
from repro.errors import ValidationError


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON (sorted keys): the input of every digest."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.cache
def code_version() -> str:
    """Digest of every source file of the ``repro`` package (once per process)."""
    package_dir = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def input_files(cls: type, values: Mapping[str, Any]) -> dict[str, Any]:
    """``{field: path}`` of the input-file fields that ``values`` sets.

    ``cls`` is the dataclass declaring the fields (a request or a
    scenario); ``values`` maps its field names to values.
    """
    return {
        field.name: values[field.name]
        for field in dataclasses.fields(cls)
        if field.metadata.keys() >= INPUT_FILE.keys() and values.get(field.name)
    }


def _file_digest(field: str, path: Any) -> str:
    try:
        with open(os.fsdecode(path), "rb") as handle:
            return hashlib.file_digest(handle, "sha256").hexdigest()
    except (OSError, TypeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise ValidationError(f"cannot read {field} {path}: {reason}") from None


def store_key(
    namespace: str, params: Mapping[str, Any], files: Mapping[str, Any] | None = None
) -> str:
    """The address of an entry; ``files`` is what :func:`input_files` returns.

    An unreadable input file is a :class:`~repro.errors.ValidationError`
    naming its field.
    """
    document = {
        "namespace": namespace,
        "code": code_version(),
        "params": params,
        "files": {name: _file_digest(name, path) for name, path in (files or {}).items()},
    }
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def publish(
    path: Path, write: Callable[[Path], None], *, directory: bool = False
) -> None:
    """Fill a temp sibling of ``path`` with ``write``, then rename it into place.

    The temp is removed whenever the publish fails.  A directory cannot
    replace a non-empty one: that rename raises :class:`OSError`, which
    tells the caller that another writer got there first.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    prefix, parent = f".{path.name[:16]}.", path.parent
    if directory:
        tmp = tempfile.mkdtemp(prefix=prefix, suffix=".tmp", dir=parent)
    else:
        fd, tmp = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=parent)
        os.close(fd)
    try:
        write(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        if directory:
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def write_atomic(path: Path, data: bytes) -> None:
    """Publish ``data`` as the file ``path``."""
    publish(path, lambda tmp: tmp.write_bytes(data))


class Store:
    """A directory of content-addressed entries at ``root/<key[:2]>/<key>``."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Where the entry of ``key`` lives."""
        return self.root / key[:2] / key

    def get(self, key: str) -> bytes | None:
        """The bytes stored under ``key``, or ``None`` if there are none."""
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> None:
        """Publish ``data`` under ``key``."""
        write_atomic(self.path(key), data)
