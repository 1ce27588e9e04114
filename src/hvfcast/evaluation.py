"""Held-out evaluation: fold ensembling, agreement metrics, and baselines.

Each test pair is forecast by averaging the per-fold models of its horizon
bin (each model forwards the bin's pairs as one batch), then scored
pointwise against the actual later field over the 54 measured cells.  The
report carries overall MAE/RMSE with bootstrap CIs, mean-deviation
agreement (Pearson r, adjusted R^2, Bland-Altman), a per-bin MAE table,
and rows for the classical baselines (copy-forward, pointwise least
squares, pointwise exponential).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .domain import DB_MAX, DB_MIN, Cell, DataError, VisualField, mask_cells, mean_deviation, valid_mask_array
from .models import Model
from .pipeline import BIN_CENTERS, FeatureCombo, FieldPair, encode_input, years_between
from . import synthsim

N_BOOTSTRAP = 1000  # bootstrap resamples behind each confidence interval
# the most resamples `evaluate_testset` accepts: at this count one CI over
# 141 pairs takes about 1.6 s on one core of a 2-vCPU x86 host
_MAX_BOOTSTRAP = 1_000_000
_BOOTSTRAP_DRAW = 1 << 20  # resample indices drawn at once, at most

# Benchmarks from the original clinical-cohort runs of this pipeline
# (32,443 fields over 20 years).  Recorded in every report for context;
# synthetic cohorts are not expected to reproduce them.  Two overall MAE
# figures were reported for the same test set; 2.47 is taken as canonical.
CLINICAL_REFERENCE = {
    "overall_mae_db": 2.47,
    "overall_mae_ci_db": [2.45, 2.48],
    "overall_mae_db_also_reported": 2.57,
    "rmse_db": 3.47,
    "rmse_ci_db": [3.45, 3.49],
    "md_pearson_r": 0.92,
    "md_adjusted_r2": 0.84,
    "bland_altman_mean_difference_db": 0.41,
    "note": "clinical-cohort benchmarks; not attainable on synthetic data",
}


# ---------------------------------------------------------------------------
# Fold ensembling


@dataclass
class EnsembleForecast:
    """Cell-wise mean of the fold models' predictions for one input."""

    raw: np.ndarray  # (8, 9) unclamped mean
    n_models: int
    bin: float | None = None

    def exported_grid(self) -> np.ndarray:
        """Clamped to the dB range; off-mask cells zeroed."""
        return np.clip(self.raw, DB_MIN, DB_MAX) * valid_mask_array()

    def exported_values(self) -> dict[Cell, float]:
        grid = self.exported_grid()
        return {c: float(grid[c]) for c in mask_cells()}


def ensemble_means(models: list[Model], xs: np.ndarray) -> np.ndarray:
    """(n, 8, 9) cell-wise means of the models' infer-mode outputs for a
    batch of n encoded inputs: one forward per model.

    Per-cell values are sorted before summation, so each mean is bit-exactly
    independent of model order.  Conv families give the same bits at any
    batch size; the FullyConnected dense layers are a matrix-vector product
    at batch 1 and a matrix product at batch n, so they can differ in the
    last bit.
    """
    if not models:
        raise DataError("ensemble needs at least one model")
    ref = models[0].spec
    for m in models[1:]:
        if m.spec.replace(seed=ref.seed) != ref:
            raise DataError(f"ensemble models disagree on spec: {m.spec.to_dict()} vs {ref.to_dict()} (seed aside)")
    outputs = np.stack([m.forward(xs, "infer").data[:, 0] for m in models])
    return np.sort(outputs, axis=0).sum(axis=0) / len(models)


def ensemble_predict(models: list[Model], x: np.ndarray, bin_center: float | None = None) -> EnsembleForecast:
    """The fold ensemble's forecast for a single encoded input (see
    `ensemble_means`).  Clamping happens on export only."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    return EnsembleForecast(raw=ensemble_means(models, x)[0], n_models=len(models), bin=bin_center)


# ---------------------------------------------------------------------------
# Agreement statistics


def _split_xy(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("expected a sequence of (predicted, actual) pairs")
    return arr[:, 0], arr[:, 1]


def pearson_adj_r2(pairs) -> tuple[float, float, float]:
    """Sample Pearson r, adjusted R^2 = 1-(1-r^2)(n-1)/(n-2), two-sided p."""
    x, y = _split_xy(pairs)
    n = x.size
    if n < 3:
        raise DataError(f"pearson_adj_r2 needs n >= 3, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DataError("degenerate: zero variance in a coordinate")
    r = float((xc * yc).sum() / (sx * sy))
    r2 = r * r
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    if r2 >= 1.0:
        p = 0.0
    else:
        # imported here, as only this statistic needs scipy: the Student-t
        # tail stdtr(df, -t) equals scipy.stats.t.sf(t, df) and its module
        # imports in a third of the time
        from scipy.special import stdtr

        t = abs(r) * math.sqrt((n - 2) / (1.0 - r2))
        p = 2.0 * float(stdtr(n - 2, -t))
    return r, adj, p


def bland_altman(pairs) -> tuple[float, float, float]:
    """(mean difference, lower, upper limit of agreement) of predicted-actual."""
    x, y = _split_xy(pairs)
    if x.size < 2:
        raise DataError(f"bland_altman needs n >= 2, got {x.size}")
    d = x - y
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    return mean, mean - 1.96 * sd, mean + 1.96 * sd


# ---------------------------------------------------------------------------
# Classical baselines


BASELINE_METHODS = ("copy", "pointwise_ols", "pointwise_exp")
_BASELINE_MIN_FIELDS = {"copy": 1, "pointwise_ols": 2, "pointwise_exp": 2}


def baseline_forecast(method: str, history: list[VisualField], horizon_years: float) -> np.ndarray:
    """Forecast `horizon_years` past the last field of a same-eye series, as
    a (54,) array in `mask_cells()` order.

    copy repeats the last field; pointwise_ols extrapolates a per-cell
    least-squares line over time; pointwise_exp fits the line on
    log(dB + 1) and back-transforms.  Predictions clamp to [0, 50] dB.
    """
    if method not in BASELINE_METHODS:
        raise DataError(f"unknown baseline method {method!r}")
    need = _BASELINE_MIN_FIELDS[method]
    if len(history) < need:
        raise DataError(f"{method} needs at least {need} field(s), got {len(history)}")
    history = sorted(history, key=lambda f: f.test_date)
    if method == "copy":
        return np.array(history[-1].values)

    times = np.array([years_between(history[0].test_date, f.test_date) for f in history])
    if np.unique(times).size < 2:
        raise DataError(f"{method} needs at least 2 distinct test dates")
    ys = np.array([f.values for f in history])  # (n, 54)
    if method == "pointwise_exp":
        ys = np.log(ys + 1.0)

    t_mean = times.mean()
    tc = times - t_mean
    slope = (tc[:, None] * (ys - ys.mean(axis=0))).sum(axis=0) / (tc * tc).sum()
    intercept = ys.mean(axis=0) - slope * t_mean
    t_target = times[-1] + horizon_years
    pred = intercept + slope * t_target
    if method == "pointwise_exp":
        pred = np.exp(pred) - 1.0
    return np.clip(pred, DB_MIN, DB_MAX)


# ---------------------------------------------------------------------------
# Test-set evaluation


@dataclass
class MetricsReport:
    """Everything the evaluation emits, JSON-serializable."""

    n_pairs: int
    n_skipped: int
    overall: dict
    md_scatter: dict
    bland_altman: dict
    per_bin: list[dict]
    baselines: list[dict]
    rows: dict = field(default_factory=dict)
    bootstrap: dict = field(default_factory=dict)
    reference: dict = field(default_factory=lambda: dict(CLINICAL_REFERENCE))

    def to_json_dict(self) -> dict:
        return asdict(self)


def _bootstrap_ci(
    values: np.ndarray, rng: np.random.Generator, n_resamples: int, transform=None
) -> list[float]:
    """Percentile 95% CI of the mean under pair-level resampling, with each
    resample's mean passed through `transform` (np.sqrt: RMSE from squares).

    The indices are drawn as blocks of whole resamples, each of at most
    _BOOTSTRAP_DRAW indices, which bounds memory; the blocks consume the
    generator exactly as `n_resamples` separate draws of `n` indices would.
    """
    n = values.size
    rows = max(1, _BOOTSTRAP_DRAW // n)
    stats = np.concatenate([
        values[rng.integers(0, n, size=(min(rows, n_resamples - start), n))].mean(axis=1)
        for start in range(0, n_resamples, rows)
    ])
    if transform is not None:
        stats = transform(stats)
    return [float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))]


def _columns(rows: list[tuple[float, float, float]]) -> np.ndarray:
    """One forecaster's (bin, mean |err|, mean err^2) rows as three
    contiguous columns."""
    return np.array(rows, dtype=np.float64).reshape(-1, 3).T.copy()


def _statistic(stat, pairs, keys: tuple[str, ...]) -> dict:
    """`stat(pairs)` under `keys`, or every key None and `undefined_because`
    when the statistic is undefined on these pairs."""
    try:
        return dict(zip(keys, stat(pairs), strict=True))
    except DataError as e:
        return dict.fromkeys(keys) | {"undefined_because": str(e)}


def evaluate_testset(
    models_by_bin: dict[float, list[Model]],
    test_binned: dict[float, list[FieldPair]],
    combo: FeatureCombo,
    fields: list[VisualField] | None = None,
    bootstrap_seed: int = 0,
    n_bootstrap: int = N_BOOTSTRAP,
) -> MetricsReport:
    """Score fold-ensembled forecasts of every binned test pair, and the
    baselines' forecasts of the same pairs.

    Each fold model of a bin forwards all of that bin's pairs in one batch
    (`ensemble_means`).  Then, pair by pair in bin order, the ensemble's
    export, copy-forward and (where the input has two distinct earlier test
    dates) the least-squares/exponential baselines are scored by one rule
    into one error table, and every report section is read off it.  Pairs
    whose bin has no trained model are skipped but counted.  When the full
    dataset is supplied, the least-squares/exponential baselines use each
    pair's input-side history (tests up to the input date), so they never
    see information the model could not.

    Mean deviation is taken against `synthsim.normative_surface`, each
    surface computed once per call: a field paired with several others
    repeats its (age, eye) key, and about two thirds of the lookups on a
    five-tests-per-eye cohort do.
    """
    if n_bootstrap < 1:
        raise DataError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    if n_bootstrap > _MAX_BOOTSTRAP:
        raise DataError(f"n_bootstrap must be <= {_MAX_BOOTSTRAP}, got {n_bootstrap}")
    mask = valid_mask_array()
    normative = lru_cache(maxsize=None)(synthsim.normative_surface)

    history_index: dict[tuple[str, str], list[VisualField]] = {}
    if fields is not None:
        for f in sorted(fields, key=lambda f: f.test_date):
            history_index.setdefault((f.patient_id, f.eye), []).append(f)

    # forecaster -> one (bin, mean |err|, mean err^2) row per pair it forecast
    errors: dict[str, list[tuple[float, float, float]]] = {
        name: [] for name in ("ensemble", *BASELINE_METHODS)
    }
    md_rows: list[dict] = []
    skipped_by_bin: dict[float, int] = {}

    for center in BIN_CENTERS:
        pairs = test_binned.get(center, [])
        if not pairs:
            continue
        models = models_by_bin.get(center, [])
        if not models:
            skipped_by_bin[center] = len(pairs)
            continue
        means = ensemble_means(models, np.stack([encode_input(pair.input, combo) for pair in pairs]))
        for pair, mean in zip(pairs, means):
            pred = EnsembleForecast(raw=mean, n_models=len(models)).exported_grid()[mask]
            forecasts = {
                "ensemble": pred,
                "copy": baseline_forecast("copy", [pair.input], pair.delta_years),
            }
            series = history_index.get((pair.input.patient_id, pair.input.eye), [])
            history = [f for f in series if f.test_date <= pair.input.test_date]
            if len({f.test_date for f in history}) >= 2:
                horizon = years_between(history[-1].test_date, pair.target.test_date)
                for method in ("pointwise_ols", "pointwise_exp"):
                    forecasts[method] = baseline_forecast(method, history, horizon)
            target = np.array(pair.target.values)
            for name, forecast in forecasts.items():
                err = forecast - target
                errors[name].append((center, float(np.abs(err).mean()), float((err * err).mean())))

            surface = normative(pair.target.age_years, pair.target.eye)
            input_surface = normative(pair.input.age_years, pair.input.eye)
            md_rows.append(
                {
                    "bin": center,
                    "predicted_md": mean_deviation(pred, surface, pair.target.eye),
                    "actual_md": mean_deviation(pair.target.values, surface, pair.target.eye),
                    "input_md": mean_deviation(pair.input.values, input_surface, pair.input.eye),
                    "delta_years": pair.delta_years,
                }
            )

    if not errors["ensemble"]:
        raise DataError("no test pairs could be evaluated")

    bins, mae, sq = _columns(errors["ensemble"])
    rng = np.random.default_rng(bootstrap_seed)
    overall = {
        "mae": float(mae.mean()),
        "mae_ci": _bootstrap_ci(mae, rng, n_bootstrap),
        "rmse": float(np.sqrt(sq.mean())),
        "rmse_ci": _bootstrap_ci(sq, rng, n_bootstrap, np.sqrt),
    }
    if not overall["rmse"] >= overall["mae"] - 1e-12:
        raise DataError(f"rmse {overall['rmse']!r} < mae {overall['mae']!r}")

    per_bin = []
    for center in BIN_CENTERS:
        bin_mae = mae[bins == center]
        per_bin.append(
            {
                "bin": center,
                "n_pairs": bin_mae.size,
                "n_skipped": skipped_by_bin.get(center, 0),
                "mae": float(bin_mae.mean()) if bin_mae.size else None,
                "mae_ci": _bootstrap_ci(bin_mae, rng, n_bootstrap) if bin_mae.size else None,
            }
        )
    n_binned = sum(e["n_pairs"] for e in per_bin)
    if n_binned != mae.size:
        raise DataError(f"per-bin counts sum to {n_binned}, not {mae.size} pairs")

    baselines = []
    for method in BASELINE_METHODS:
        _, method_mae, method_sq = _columns(errors[method])
        n = method_mae.size
        baselines.append(
            {
                "method": method,
                "n_pairs": n,
                "mae": float(method_mae.mean()) if n else None,
                "rmse": float(np.sqrt(method_sq.mean())) if n else None,
            }
        )

    md_pairs = [(row["predicted_md"], row["actual_md"]) for row in md_rows]
    return MetricsReport(
        n_pairs=mae.size,
        n_skipped=sum(skipped_by_bin.values()),
        overall=overall,
        md_scatter={"n": len(md_pairs)}
        | _statistic(pearson_adj_r2, md_pairs, ("pearson_r", "adjusted_r2", "p_two_sided")),
        bland_altman=_statistic(bland_altman, md_pairs, ("mean_difference", "loa_lower", "loa_upper")),
        per_bin=per_bin,
        baselines=baselines,
        rows={
            "md_scatter": md_rows,
            "bland_altman": [
                {
                    "mean_md": 0.5 * (row["predicted_md"] + row["actual_md"]),
                    "difference_md": row["predicted_md"] - row["actual_md"],
                    "bin": row["bin"],
                }
                for row in md_rows
            ],
        },
        bootstrap={"n_resamples": n_bootstrap, "seed": bootstrap_seed},
    )
