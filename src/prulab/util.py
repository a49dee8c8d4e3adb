"""Shared report plumbing: confidence intervals, report dicts, config hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a Bernoulli rate; returns (center, half_width)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.96
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return center, half


def report_dict(report) -> dict:
    """A report dataclass as a JSON-ready dict: one key per field, in field
    order, named by the field's ``metadata["json"]`` if set; nested
    dataclasses recurse."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        out[f.metadata.get("json", f.name)] = report_dict(value) if is_dataclass(value) else value
    return out


def config_hash(config: dict) -> str:
    """Content hash of a config dict (canonical JSON, sha1 hex)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()
