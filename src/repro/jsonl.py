"""Appends to newline-delimited record files that survive a torn final write.

The JSONL estimate store and the JSONL run ledger keep one JSON record per
line and only ever append.  A crash in the middle of an append leaves the
file ending in an unterminated fragment.  Appending the next record straight
after it would glue the two into one unparseable line and lose the new
record, so :func:`append_line` first closes a torn tail with
:data:`TORN_MARK` and a newline: the fragment becomes a line of its own,
which readers skip (:func:`is_torn`), and the new record stays intact on the
line after it.
"""

from __future__ import annotations

import os

#: Closes off a torn fragment.  JSON text never holds a raw control
#: character, so a line ending in this mark is always a closed fragment and
#: never a record.
TORN_MARK = "\x1e"


def append_line(path: str, line: str) -> int:
    """Append ``line`` (newline-terminated) to ``path``; returns the bytes written."""
    data = line.encode("utf-8")
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END) > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = (TORN_MARK + "\n").encode("utf-8") + data
        handle.write(data)
    return len(data)


def is_torn(line: str) -> bool:
    """True for an unterminated final line or a fragment :func:`append_line` closed off."""
    return not line.endswith("\n") or line.endswith(TORN_MARK + "\n")
