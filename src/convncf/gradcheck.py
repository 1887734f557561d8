"""Central-difference verification of every analytic gradient.

For seeded random coordinates of each parameter section, the derivative of
the regularization-free pairwise loss is estimated as
(f(theta+h) - f(theta-h)) / 2h and compared against the analytic value. The
loss is piecewise smooth: relu kinks make the two-sided estimate meaningless
for coordinates whose perturbation moves a unit across or near zero, so such
coordinates are skipped and counted rather than silently passed. The guard
reads the tower's cached post-relu outputs and consults only the units whose
output the perturbation changes: an unrelated near-zero unit cannot mask the
whole section, and a unit dead at both perturbed points, which passes no
gradient, causes no skip.

Regularization is deliberately excluded: quadratic penalties would dominate
the difference and hide adjoint bugs in the interesting terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from convncf.embeddings import EmbeddingTables, history_terms
from convncf.model import ModelSpec, head_views, section_arrays, tower_work
from convncf.training import bpr_loss, compute_triple_gradients, triple_forward


@dataclass
class SectionReport:
    name: str
    checked: int
    skipped: int
    max_rel_err: float
    max_abs_err: float
    failures: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class GradReport:
    sections: list[SectionReport]
    step: float
    tol: float
    abs_floor: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)


def format_report(report: GradReport) -> str:
    lines = [
        f"{'section':<16} {'checked':>8} {'skipped':>8} {'max rel':>12} {'max abs':>12}  status",
    ]
    for s in report.sections:
        status = "ok" if s.passed else "FAIL"
        lines.append(
            f"{s.name:<16} {s.checked:>8} {s.skipped:>8} {s.max_rel_err:>12.3e} {s.max_abs_err:>12.3e}  {status}"
        )
        for flat, analytic, numeric in s.failures[:5]:
            lines.append(f"    coordinate {flat}: analytic {analytic!r} vs numeric {numeric!r}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"{verdict} (step={report.step:g}, tol={report.tol:g}, abs_floor={report.abs_floor:g})"
    )
    return "\n".join(lines)


def _loss_and_acts(
    spec: ModelSpec, tables: EmbeddingTables, u: int, i: int, j: int, terms: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """The triple's loss and its head's relu outputs (none for a head
    without layers), in buffers of their own, so each perturbed forward's
    outputs stay for the kink test."""
    *_, acts, y = triple_forward(spec, tables, u, i, j, terms, tower_work(spec, 2))
    return bpr_loss(float(y[0]), float(y[1])), acts[1:] if acts else []


def _candidate_indices(name: str, arr: np.ndarray, u: int, i: int, j: int, terms: np.ndarray) -> np.ndarray:
    """Flat coordinates the triple can actually reach in a section the model
    owns. Derived from the model structure, never from the analytic
    gradients under test, so a scatter rule that drops a row is caught
    instead of skipped."""
    rows = {"P": [u], "Q": [i, j], "Qp": terms}.get(name)
    if rows is None:
        return np.arange(arr.size)
    K = arr.shape[1]
    return (np.asarray(rows, dtype=np.int64)[:, None] * K + np.arange(K)).ravel()


def _analytic_entry(grads: dict, rows: dict, name: str, flat: int, arr: np.ndarray) -> float:
    if name not in rows:
        return float(grads[name].flat[flat])
    r, k = divmod(flat, arr.shape[1])
    return float(grads[name][: len(rows[name])][rows[name] == r, k].sum())


def _kink_risk(
    base: list[np.ndarray], plus: list[np.ndarray], minus: list[np.ndarray], threshold: float
) -> bool:
    for ab, ap, am in zip(base, plus, minus):
        affected = ap != am
        if not affected.any():
            continue
        if ((ap > 0) != (am > 0))[affected].any():
            return True
        magnitude = np.minimum(np.minimum(ab, ap), am)
        if (magnitude[affected] < threshold).any():
            return True
    return False


GradFn = Callable[[ModelSpec, EmbeddingTables, int, int, int, np.ndarray], tuple[dict, dict]]


def triple_gradients(spec: ModelSpec, tables: EmbeddingTables, u: int, i: int, j: int, terms) -> tuple[dict, dict]:
    """``compute_triple_gradients`` into fresh buffers, head views and rows
    for each owned table (P 1, Q 2, Qp ``len(terms)``): (buffers, rows)."""
    counts = {"P": 1, "Q": 2, "Qp": 0 if terms is None else len(terms)}
    grads = head_views(spec.head) | {name: np.empty((counts[name], tables.K)) for name in spec.variant.tables}
    return grads, compute_triple_gradients(spec, tables, u, i, j, terms, grads, tower_work(spec, 2))[1]


def finite_diff_check(
    spec: ModelSpec,
    tables: EmbeddingTables,
    triple: tuple[int, int, int],
    history: Iterable[int] = (),
    step: float = 1e-5,
    tol: float = 1e-4,
    abs_floor: float = 1e-8,
    sample: int = 200,
    seed: int = 0,
    grad_fn: Optional[GradFn] = None,
) -> GradReport:
    """Check up to ``sample`` seeded coordinates of every parameter section.

    A coordinate passes when |analytic - numeric| <= abs_floor or the
    relative error against max(|analytic|, |numeric|) is <= tol. A non-finite
    loss at a perturbed point is reported as a failure at that coordinate.
    ``grad_fn``, given the history's terms, returns (buffers, touched rows)
    as ``triple_gradients``, its default, does; tests inject a corrupted one.
    """
    u, i, j = triple
    terms = history_terms(list(history))
    grads, rows = (grad_fn or triple_gradients)(spec, tables, u, i, j, terms)
    _, base_acts = _loss_and_acts(spec, tables, u, i, j, terms)
    rng = np.random.default_rng(seed)
    threshold = 10.0 * step

    sections = []
    for name, arr in section_arrays(spec, tables).items():
        candidates = _candidate_indices(name, arr, u, i, j, terms)
        if candidates.size > sample:
            candidates = rng.choice(candidates, size=sample, replace=False)
        candidates = np.sort(candidates)
        checked = skipped = 0
        max_rel = max_abs = 0.0
        failures: list[tuple[int, float, float]] = []
        for flat in candidates.tolist():
            orig = arr.flat[flat]
            arr.flat[flat] = orig + step
            loss_p, acts_p = _loss_and_acts(spec, tables, u, i, j, terms)
            arr.flat[flat] = orig - step
            loss_m, acts_m = _loss_and_acts(spec, tables, u, i, j, terms)
            arr.flat[flat] = orig
            if not (math.isfinite(loss_p) and math.isfinite(loss_m)):
                failures.append((flat, _analytic_entry(grads, rows, name, flat, arr), float("nan")))
                continue
            if _kink_risk(base_acts, acts_p, acts_m, threshold):
                skipped += 1
                continue
            numeric = (loss_p - loss_m) / (2.0 * step)
            analytic = _analytic_entry(grads, rows, name, flat, arr)
            abs_err = abs(analytic - numeric)
            denom = max(abs(analytic), abs(numeric))
            rel_err = abs_err / denom if denom > 0 else 0.0
            checked += 1
            max_abs = max(max_abs, abs_err)
            max_rel = max(max_rel, rel_err)
            if abs_err > abs_floor and rel_err > tol:
                failures.append((flat, analytic, numeric))
        sections.append(
            SectionReport(
                name=name,
                checked=checked,
                skipped=skipped,
                max_rel_err=max_rel,
                max_abs_err=max_abs,
                failures=failures,
            )
        )
    return GradReport(sections=sections, step=step, tol=tol, abs_floor=abs_floor)
