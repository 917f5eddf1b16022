"""Reads a ``report.csv`` back: the package writes reports but never reads them."""

import json
from pathlib import Path


def read_report(path):
    """The column names, the rows as strings, and the config echo of a report."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    echo = {}
    for line in lines:
        if line.startswith("# config "):
            echo = json.loads(line[len("# config "):])
    body = [line.split(",") for line in lines if line.strip() and not line.startswith("# ")]
    return body[0], body[1:], echo
