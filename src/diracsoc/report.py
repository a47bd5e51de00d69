"""Deterministic JSON-lines and CSV output.

Records are emitted with insertion-ordered keys and every float printed
with 17 significant digits, so re-running a command with an identical
configuration produces byte-identical files.  Timestamps and other
run-local metadata go to a separate ``*_meta.json`` file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np


def fmt_float(x: float) -> str:
    if x != x:  # NaN is not valid JSON; quote it
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _fmt_value(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, complex):
        return '{"re":%s,"im":%s}' % (fmt_float(v.real), fmt_float(v.imag))
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_fmt_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def jsonl_dumps(record: dict) -> str:
    return "{" + ",".join(f"{json.dumps(str(k))}:{_fmt_value(v)}" for k, v in record.items()) + "}"


def write_jsonl(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(jsonl_dumps(rec) + "\n")


def read_jsonl(path) -> list[dict]:
    """The records of a JSON-lines file; ValueError names the first line that is no object."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: not JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path} line {lineno}: not a JSON object")
            out.append(rec)
    return out


def write_meta(path, suite: str, elapsed: float, extra: dict | None = None) -> None:
    meta = {"suite": suite, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_seconds": elapsed}
    if extra:
        meta.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """CSV with 17-significant-digit numeric formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for x in row:
                if isinstance(x, bool):
                    cells.append("true" if x else "false")
                elif isinstance(x, (int,)):
                    cells.append(str(x))
                elif isinstance(x, float):
                    cells.append("%.17g" % x)
                else:
                    cells.append(str(x))
            fh.write(",".join(cells) + "\n")


def summarize(records: list[dict]) -> dict:
    by_suite: dict[str, dict] = {}
    for rec in records:
        suite = rec.get("suite", "?")
        slot = by_suite.setdefault(suite, {"total": 0, "passed": 0, "failed": 0})
        slot["total"] += 1
        if rec.get("pass", False):
            slot["passed"] += 1
        else:
            slot["failed"] += 1
    return by_suite
