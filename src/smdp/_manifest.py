"""The key-value format shared by MDP, policy and value-function manifests:
one ``key value...`` pair per line, ``#`` starts a comment."""

from __future__ import annotations

import os
from typing import Dict, Sequence, Type

from . import circuit as ct


def read_manifest(
    path,
    kind: str,
    error: Type[ValueError],
    required: Sequence[str],
    ints: Sequence[str] = (),
    repeated: Sequence[str] = (),
) -> Dict[str, object]:
    """Fields of the manifest at `path`, keyed by their first word.

    A key may appear once, except those in `repeated`, which map to the list
    of their ``(line number, value)`` pairs in file order. Values of the keys
    in `ints` are parsed as integers. Raises `error` for a second line with
    the same key, a bad integer, or a missing required key.
    """
    fields: Dict[str, object] = {key: [] for key in repeated}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            key, value = parts[0], " ".join(parts[1:])
            if key in repeated:
                fields[key].append((lineno, value))
                continue
            if key in fields:
                raise error(f"line {lineno}: second {key!r} line")
            if key in ints:
                try:
                    value = int(value)
                except ValueError:
                    raise error(
                        f"line {lineno}: {key!r} must be an integer, got {value!r}"
                    ) from None
            fields[key] = value
    for key in required:
        if key not in fields:
            raise error(f"{kind} manifest missing {key!r} line")
    return fields


def write_manifest(path, lines: Sequence[str]) -> str:
    """Write one manifest line per entry of `lines`; returns `path`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_netlist_beside(manifest_path, fname: str, error: Type[ValueError]) -> ct.Circuit:
    """The circuit of the netlist file `fname` that a manifest names, read
    relative to the manifest's directory; `error` if the file cannot be read."""
    path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), fname)
    try:
        return ct.read_netlist(path)
    except OSError as exc:
        raise error(f"cannot read netlist {fname!r}: {exc.strerror or exc}") from None
