r"""Deterministic result tables.

Both renderers emit byte-identical output for identical inputs; the only
run-dependent line is the footer, which always starts with ``#``
and sits alone at the end so consumers (and the determinism check) can strip
it.  CSV follows RFC 4180 (CRLF line ends, minimal quoting, quotes doubled);
floats are written with 17 significant digits so values survive a
parse/format round trip, and minus infinity (a zero quantity in dB) prints
as ``-inf``.  JSON output is key-sorted, with non-finite floats emitted as
the strings "inf"/"-inf"/"nan" to stay inside strict JSON.
"""

from __future__ import annotations

import datetime
import errno
import json
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import ConfigError

_QUOTE_TRIGGERS = (",", '"', "\r", "\n")


def format_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_field(value) -> str:
    text = format_number(value)
    if any(ch in text for ch in _QUOTE_TRIGGERS):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def footer_line() -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return f"# generated {stamp}"


@dataclass
class ResultTable:
    columns: List[str]
    rows: List[Sequence] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns")
        self.rows.append(list(values))

    def render_csv(self) -> str:
        lines = [",".join(_csv_field(c) for c in self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_field(v) for v in row))
        return "\r\n".join(lines) + "\r\n"

    def render_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "rows": [[_json_safe(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            body = self.render_csv()
        elif fmt == "json":
            body = self.render_json()
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return body + footer_line() + "\n"


def check_writable(out: str) -> None:
    """Raise, before any work, the ConfigError ``write_table`` would raise
    for ``out`` when the path is empty or a directory, lies in a missing
    directory or is not writable; the file is neither created nor
    truncated."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.exists(out):
        code = None if os.access(out, os.W_OK) else errno.EACCES
    elif not out or not os.path.isdir(parent):
        code = errno.ENOENT
    else:
        code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code is not None:
        exc = OSError(code, os.strerror(code), out)
        raise ConfigError(f"cannot write {out}: {exc}")


def write_table(table: ResultTable, fmt: str, out: Optional[str]) -> None:
    """Print the rendered table, or write it to ``out``; a file that cannot
    be written is a ConfigError."""
    text = table.render(fmt)
    if out is None:
        print(text, end="")
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
