"""The text files smdp writes and the manifests it reads back: the name rule
every writer checks, the one writer, which makes the directory and
overwrites each file in place, and the one manifest reader.

A manifest holds one ``key value...`` pair per line and ``#`` starts a
comment; its reader refuses any key its caller does not name.
"""

from __future__ import annotations

import os
import stat
from typing import Dict, Sequence, Tuple, Type


def check_name(
    name: str, what: str, error: Type[ValueError], *, text: bool = False, file: bool = False
) -> None:
    """Raise `error` unless `name` reads back from a written file equal to
    itself: ASCII with no ``#`` (which starts a comment), and one non-empty
    token with no whitespace, or with `text` a free text with no line break
    and no leading, trailing or repeated whitespace (`read_manifest` splits
    a line on whitespace and joins the words after the key with one space).
    With `file` the name is also part of a file name, so it may not hold a
    path separator (``/`` or ``\\``) or a NUL."""
    if text:
        ok = " ".join(name.split()) == name
    else:
        ok = name.split() == [name] and not (file and any(ch in name for ch in "/\\\0"))
    if not (ok and name.isascii() and "#" not in name):
        rule = (
            "ASCII text with no '#', line break, or leading, trailing or repeated whitespace"
            if text
            else "one ASCII token with no whitespace or '#'"
            + (" and no path separator" if file else "")
        )
        raise error(f"{what} {name!r} would not read back as written: it must be {rule}")


def overwrite(path, text: str) -> str:
    """Write `text` as ASCII to the file at `path` over its old bytes, and
    cut a regular file to the new length; returns `path`.

    The file is opened without ``O_TRUNC``, so rewriting an existing file
    costs no flush: ext4 forces the data of a non-empty file truncated to
    zero out at close (`auto_da_alloc`), and Python's text-mode writing
    opens with ``O_TRUNC``. As with that, the file keeps its inode and
    permissions and a symlink is written through. Only a regular file is
    cut, so a pipe or a terminal (``--out /dev/stdout``) takes the text as
    a stream.

    The text is encoded before the file is opened, so a text that is not
    ASCII raises `UnicodeEncodeError` and leaves the file as it was. A write
    cut short leaves the new bytes followed by the old file's tail, where
    truncating first would leave a short file; neither is a valid file. A
    whole new text followed by an old tail is refused by the readers, which
    take one ``circuit``, ``outputs`` or ``p`` line, as many clauses as the
    ``p`` line declares, and each manifest key its caller names once and no
    other, unless the tail is a bare line break.
    """
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return path


def write_files(directory, files: Sequence[Tuple[str, str]]) -> str:
    """Make `directory` (``""`` is the current one) and overwrite each
    ``(file name, text)`` pair of `files` in it, in order; returns the path
    of the last one. The caller builds every text first, so a refused name
    makes no directory and writes no file."""
    os.makedirs(directory or os.curdir, exist_ok=True)
    for fname, text in files:
        path = overwrite(os.path.join(directory, fname), text)
    return path


def read_manifest(
    path,
    kind: str,
    error: Type[ValueError],
    required: Sequence[str],
    ints: Sequence[str] = (),
    repeated: Sequence[str] = (),
) -> Dict[str, object]:
    """Fields of the manifest at `path`, keyed by their first word.

    The keys are those of `required`, `ints` and `repeated`. A key may
    appear once, except those in `repeated`, which map to the list of their
    ``(line number, value)`` pairs in file order. Values of the keys in
    `ints` are parsed as integers. Raises `error` for any other key, a
    second line with the same key, a bad integer, or a missing required key.
    """
    known = {*required, *ints, *repeated}
    fields: Dict[str, object] = {key: [] for key in repeated}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            key, value = parts[0], " ".join(parts[1:])
            if key not in known:
                raise error(f"line {lineno}: unknown {kind} manifest key {key!r}")
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


def manifest_text(lines: Sequence[str]) -> str:
    """The manifest text with one line per entry of `lines`."""
    return "\n".join(lines) + "\n"
