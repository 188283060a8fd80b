"""ZR / TR / FR / PR node classification (paper Sec. 5.2).

The paper classifies every TransRow by which processing elements it exercises:

* **ZR** (Zero Row): all-zero pattern — no PPE, no APE.
* **TR** (Transitive Reuse): an absent node recruited as a relay — PPE only.
* **FR** (Full Result reuse): a TransRow whose value was already computed —
  APE only.
* **PR** (Prefix Result reuse): the first TransRow of a present node — PPE and
  APE.

Fig. 9(b)/(c) plot the share of each class as the bit width and tiling row
size change; this module provides that classification from a scoreboard run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from ..scoreboard.algorithm import ScoreboardResult


class NodeType(str, Enum):
    """The four execution classes of the paper (plus distance outliers)."""

    ZERO_ROW = "ZR"
    TRANSITIVE_REUSE = "TR"
    FULL_RESULT_REUSE = "FR"
    PREFIX_RESULT_REUSE = "PR"
    OUTLIER = "OUTLIER"


@dataclass(frozen=True)
class Classification:
    """Counts of TransRows (or relay steps) per execution class."""

    zr_rows: int
    tr_steps: int
    fr_rows: int
    pr_rows: int
    outlier_rows: int
    total_transrows: int


def classify_nodes(result: ScoreboardResult) -> Classification:
    """Count TransRows per execution class for one scoreboard run."""
    zr_rows = result.zero_rows
    tr_steps = 0
    fr_rows = 0
    pr_rows = 0
    for node in result.nodes.values():
        if node.is_relay:
            tr_steps += 1
        else:
            pr_rows += 1
            fr_rows += node.count - 1
    outlier_rows = 0
    for outlier in result.outliers:
        outlier_rows += 1
        fr_rows += outlier.count - 1
    return Classification(
        zr_rows=zr_rows,
        tr_steps=tr_steps,
        fr_rows=fr_rows,
        pr_rows=pr_rows,
        outlier_rows=outlier_rows,
        total_transrows=result.total_transrows,
    )


def classification_percentages(result: ScoreboardResult) -> Dict[str, float]:
    """Per-class share of the sub-tile's TransRows, in percent.

    The denominator is the number of TransRows, matching Fig. 9(b)/(c) where
    ZR + FR + PR (+ outliers) sum to 100 % and TR appears as extra relay work
    on top of it.
    """
    classes = classify_nodes(result)
    total = classes.total_transrows or 1
    return {
        "ZR": 100.0 * classes.zr_rows / total,
        "TR": 100.0 * classes.tr_steps / total,
        "FR": 100.0 * classes.fr_rows / total,
        "PR": 100.0 * classes.pr_rows / total,
        "OUTLIER": 100.0 * classes.outlier_rows / total,
    }
