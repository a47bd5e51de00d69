"""Deterministic JSON-lines and CSV output.

Records are emitted with insertion-ordered keys and every float printed
with 17 significant digits, so re-running a command with an identical
configuration produces byte-identical files.  Timestamps and other
run-local metadata go to a separate ``*_meta.json`` file.
"""

from __future__ import annotations

import json
import math
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
    return [rec for _, rec in read_jsonl_numbered(path)]


def read_jsonl_numbered(path) -> list[tuple[int, dict]]:
    """(1-based line number, record) for each non-blank line of a JSON-lines file."""
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
            out.append((lineno, rec))
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


def margin(residual, tolerance) -> float:
    """residual / tolerance; an exact check (tolerance 0) scores 0 at residual 0, else inf.

    Values written as "nan" or "inf" strings are read back as floats; NaN stays NaN,
    and a value that is no number gives NaN.
    """
    try:
        r, t = float(residual), float(tolerance)
    except (TypeError, ValueError):
        return math.nan
    if t == 0 and not math.isnan(r):
        return 0.0 if r == 0 else math.inf
    return r / t


def summarize(numbered: list[tuple[int, dict]]) -> dict:
    """Per suite: record counts and, per check, the worst margin and failing line numbers.

    ``numbered`` holds (1-based .jsonl line number, record) pairs; a NaN margin is
    the worst of all.  A record without residual or tolerance has margin NaN.
    """
    by_suite: dict[str, dict] = {}
    for lineno, rec in numbered:
        slot = by_suite.setdefault(rec.get("suite", "?"),
                                   {"total": 0, "passed": 0, "failed": 0, "checks": {}})
        chk = slot["checks"].setdefault(rec.get("check", "?"),
                                        {"worst_margin": -math.inf, "failed_lines": []})
        m = margin(rec.get("residual", "nan"), rec.get("tolerance", "nan"))
        # np.max, unlike max(), propagates NaN
        chk["worst_margin"] = float(np.max([chk["worst_margin"], m]))
        slot["total"] += 1
        if rec.get("pass", False):
            slot["passed"] += 1
        else:
            slot["failed"] += 1
            chk["failed_lines"].append(lineno)
    return by_suite
