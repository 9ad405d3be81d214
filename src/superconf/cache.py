"""Content-addressed cache for expensive basis and resolution results.

Keys are SHA-256 hashes of a canonical JSON description of the computation;
values are JSON objects with the key set the computation returns, stored as
canonical JSON bytes wrapped with their own digest, so tampered, truncated or
misshapen entries are detected, warned about, and recomputed.  Writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from . import __version__

ENV_CACHE_DIR = "SUPERCONF_CACHE_DIR"


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def cache_key(descriptor) -> str:
    """Digest of the descriptor and the engine version that computes it."""
    keyed = {"engine": __version__, "descriptor": descriptor}
    return hashlib.sha256(canonical_bytes(keyed)).hexdigest()


def _path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key + ".json")


def store(cache_dir: str, key: str, value) -> None:
    payload = canonical_bytes(value)
    wrapper = {
        "key": key,
        "digest": hashlib.sha256(payload).hexdigest(),
        "value": value,
    }
    path = _path(cache_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(canonical_bytes(wrapper))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(cache_dir: str, key: str, keys: set[str]):
    """Value for the key, or None on miss/corruption (with a warning).  A
    value that is not a JSON object with exactly the key set `keys` is
    corrupt."""
    path = _path(cache_dir, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            wrapper = json.loads(fh.read())
        if not isinstance(wrapper, dict):
            raise ValueError("entry is not a JSON object")
        value = wrapper["value"]
        if wrapper.get("key") != key:
            raise ValueError("key mismatch")
        if hashlib.sha256(canonical_bytes(value)).hexdigest() != wrapper.get("digest"):
            raise ValueError("digest mismatch")
        if not isinstance(value, dict):
            raise ValueError("value is not a JSON object")
        if set(value) != keys:
            raise ValueError(f"value keys are not {sorted(keys)}")
        return value
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {key[:12]}: {exc}", file=sys.stderr)
        return None


def cached(cache_dir: str | None, descriptor, compute, keys: set[str], verify: bool = False):
    """Return compute() through the cache; `keys` is the key set of compute()'s
    value, so a hit of another shape is corrupt (`load`).

    With verify=True a hit is recomputed anyway and compared byte for byte; a
    mismatch warns and the fresh value wins.  A value that cannot be stored
    (say, the cache directory is a regular file) is returned with a warning.
    """
    if cache_dir is None:
        return compute()
    key = cache_key(descriptor)
    hit = load(cache_dir, key, keys)
    if hit is not None and not verify:
        return hit
    value = compute()
    if hit is not None and verify:
        if canonical_bytes(hit) != canonical_bytes(value):
            print(
                f"warning: cache entry {key[:12]} disagrees with recomputation; replacing",
                file=sys.stderr,
            )
    try:
        store(cache_dir, key, value)
    except OSError as exc:
        print(f"warning: cache entry {key[:12]} not stored: {exc}", file=sys.stderr)
    return value


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
