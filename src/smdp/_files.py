"""Writing the text files smdp produces: the name rule every writer checks
and the one writer, which overwrites a file in place."""

from __future__ import annotations

import os
import stat
from typing import Sequence, Tuple, Type


def check_name(
    name: str, what: str, error: Type[ValueError], *, text: bool = False, file: bool = False
) -> None:
    """Raise `error` unless `name` reads back from a written file equal to
    itself: ASCII with no ``#`` (which starts a comment), and one non-empty
    token with no whitespace, or with `text` a free text with no line break
    and no leading, trailing or repeated whitespace (the readers split a
    line on whitespace and join the words after the key with one space).
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
    take one ``circuit``, ``outputs`` or ``p`` line, each manifest key once,
    and as many clauses as the ``p`` line declares, unless the tail is a
    bare line break or the end of a manifest's last line, which reads as a
    key that no reader asks for.
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
    """Overwrite each ``(file name, text)`` pair of `files` in `directory`,
    in order; returns the path of the last one."""
    for fname, text in files:
        path = overwrite(os.path.join(directory, fname), text)
    return path
