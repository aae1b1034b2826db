"""Config-driven command-line front end.

Every command reads one JSON config document (--config), writes into
--out-dir, and is deterministic given the config: all seeds are config
fields and outputs carry no timestamps. Errors are emitted as a JSON
object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, graphlearn, graphs, solver, synthdata
from .errors import ConfigError, DataFormatError, KrgraphError
from .kernels import VALID_KINDS, KernelSpec, gram_matrix

log = logging.getLogger("krgraph")


# ---------------------------------------------------------------------------
# Configs: one frozen dataclass per command, filled by load_config; each
# range and enum rule is stated only in a __post_init__

def load_config(path, command):
    """The command's config, read from the JSON document at path."""
    try:
        doc = graphs.load_json(path)
    except DataFormatError as exc:
        raise ConfigError(f"config {exc}") from exc
    return graphs.read_object(COMMANDS[command][0], doc, "config")


@dataclass(frozen=True)
class KernelConfig:
    """A config's kernel: linear, rbf with sigma_sq, or precomputed, its
    matrix in matrix_csv."""

    kind: str
    sigma_sq: float | None = None
    matrix_csv: str | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"kernel kind must be one of "
                              f"{', '.join(VALID_KINDS)}, got {self.kind!r}")
        read = {"rbf": "sigma_sq", "precomputed": "matrix_csv"}.get(self.kind)
        unread = [key for key in ("matrix_csv", "sigma_sq")
                  if getattr(self, key) is not None and key != read]
        if unread:
            raise ConfigError(f"a {self.kind} kernel does not read "
                              f"{', '.join(unread)}")
        if self.kind == "precomputed" and self.matrix_csv is None:
            raise ConfigError("precomputed kernel needs matrix_csv")
        # a precomputed spec is made when load_spec reads its matrix
        if self.kind != "precomputed":
            object.__setattr__(self, "spec",
                               KernelSpec(self.kind, sigma_sq=self.sigma_sq))

    def load_spec(self):
        if self.kind == "precomputed":
            return KernelSpec(kind="precomputed",
                              precomputed=graphs.load_matrix_csv(self.matrix_csv))
        return self.spec


def _check_graph_keys(cfg, betas):
    """fit and cv read at most one of graph_json and laplacian_csv, and
    need one if a beta in betas is above 0."""
    given = [key for key in (cfg.graph_json, cfg.laplacian_csv)
             if key is not None]
    if len(given) == 2:
        raise ConfigError("give graph_json or laplacian_csv, not both")
    if not given and any(beta > 0 for beta in betas):
        raise ConfigError("beta > 0 requires graph_json or laplacian_csv")


@dataclass(frozen=True)
class IngestConfig:
    inputs_csv: str
    targets_csv: str
    distances_csv: str | None = None


@dataclass(frozen=True)
class FitConfig:
    x_csv: str
    t_csv: str
    kernel: KernelConfig
    alpha: float
    beta: float
    graph_json: str | None = None
    laplacian_csv: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "hyper",
                           solver.Hyperparams(alpha=self.alpha, beta=self.beta))
        _check_graph_keys(self, [self.beta])


@dataclass(frozen=True)
class PredictConfig:
    model_json: str
    x_csv: str


@dataclass(frozen=True, kw_only=True)
class LearnGraphConfig(graphlearn.GraphLearnConfig):
    """The graph-learning settings, with the data, kernel and weights."""

    x_csv: str
    t_csv: str
    kernel: KernelConfig
    alpha: float
    beta: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "hyper",
                           solver.Hyperparams(alpha=self.alpha, beta=self.beta))
        # the first fit, on the edgeless graph, is plain KR: alpha = 0
        # leaves a rank-deficient Gram singular
        if not self.alpha > 0:
            raise ConfigError(f"learn-graph needs alpha > 0, got {self.alpha}")


@dataclass(frozen=True)
class CvConfig:
    x_csv: str
    t_csv: str
    method: str
    grid: evaluation.CvGrid
    seed: int
    t0_csv: str | None = None
    graph_json: str | None = None
    laplacian_csv: str | None = None
    kernel: KernelConfig | None = None

    def __post_init__(self):
        evaluation.check_cv_plan(self.method, self.kernel, self.grid.sigma_sqs)
        # numpy seeds the fold split only with a non-negative integer
        if self.seed < 0:
            raise KrgraphError(f"seed must be >= 0, got {self.seed}")
        # KR and LR fit at beta = 0 whatever the grid holds
        _check_graph_keys(self, () if self.method in evaluation.GRAPH_FREE
                          else self.grid.betas)


@dataclass(frozen=True)
class KrrConfig:
    """krr's observations and weight mu, and its kernel: kernel_csv, or
    the heat kernel of graph_json at tau."""

    observed_idx: Sequence[int]
    x: Sequence[float]
    mu: float
    kernel_csv: str | None = None
    graph_json: str | None = None
    tau: float | None = None

    def __post_init__(self):
        for key in ("observed_idx", "x"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must be non-empty")
        if len(self.x) != len(self.observed_idx):
            raise ConfigError(f"x has {len(self.x)} values and observed_idx "
                              f"{len(self.observed_idx)} indices")
        if len(set(self.observed_idx)) != len(self.observed_idx):
            raise ConfigError("observed_idx repeats an index")
        for key in ("mu", "tau"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        heat = (self.graph_json, self.tau)
        if self.kernel_csv is not None and heat != (None, None):
            raise ConfigError("krr reads kernel_csv, or graph_json with tau, "
                              "not both")
        if self.kernel_csv is None and None in heat:
            raise ConfigError("krr needs kernel_csv, or graph_json with tau")


def _load_laplacian(cfg, num_nodes):
    """The config's graph, else the edgeless graph on num_nodes nodes."""
    if cfg.graph_json is not None:
        return graphs.build_laplacian(graphs.load_graph_json(cfg.graph_json))
    if cfg.laplacian_csv is not None:
        return graphs.Laplacian(graphs.load_matrix_csv(cfg.laplacian_csv))
    return graphs.Laplacian(np.zeros((num_nodes, num_nodes)))


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(cfg, out):
    train, test, graph, C_S = synthdata.make_synthetic_dataset(cfg)
    for name, matrix in [("X_train", train.X), ("T_train", train.T),
                         ("T0_train", train.T0), ("X_test", test.X),
                         ("T0_test", test.T0), ("kernel_full", C_S)]:
        graphs.save_matrix_csv(out / f"{name}.csv", matrix)
    graphs.save_graph_json(out / "graph.json", graph)
    graphs.save_json(out / "manifest.json",
                     {"config": graphs.object_json(cfg)}, pretty=True)
    log.info("wrote synthetic dataset to %s", out)


def cmd_ingest(cfg, out):
    X = graphs.load_matrix_csv(cfg.inputs_csv, header=True)
    T = graphs.load_matrix_csv(cfg.targets_csv)
    if X.shape[0] != T.shape[0]:
        raise DataFormatError(
            f"row count mismatch: {X.shape[0]} inputs vs {T.shape[0]} targets"
        )
    g = None
    if cfg.distances_csv is not None:
        D = graphs.load_matrix_csv(cfg.distances_csv)
        if D.shape != (T.shape[1], T.shape[1]):
            raise DataFormatError(
                f"distances_csv is {D.shape[0]} x {D.shape[1]}, but the "
                f"targets have {T.shape[1]} columns, one per node")
        g = graphs.geodesic_adjacency(D)
    graphs.save_matrix_csv(out / "X.csv", X)
    graphs.save_matrix_csv(out / "T.csv", T)
    manifest = {"config": graphs.object_json(cfg), "n": int(X.shape[0]),
                "input_dim": int(X.shape[1]), "num_nodes": int(T.shape[1])}
    if g is not None:
        graphs.save_graph_json(out / "graph.json", g)
        manifest["graph"] = "graph.json"
    graphs.save_json(out / "manifest.json", manifest, pretty=True)
    log.info("ingested %d rows", X.shape[0])


def cmd_fit(cfg, out):
    X = graphs.load_matrix_csv(cfg.x_csv)
    T = graphs.load_matrix_csv(cfg.t_csv)
    L = _load_laplacian(cfg, T.shape[1])
    K, spec = gram_matrix(X, cfg.kernel.load_spec())
    model = solver.fit_krg(K, T, L, cfg.hyper, x_train=X, spec=spec)
    Y = K @ model.psi  # the report's one Gram product
    del K
    # the report's text is formed before the model is saved, so a report
    # that overflows leaves no model behind; only its scalars outlive Y
    with np.errstate(over="ignore", invalid="ignore"):
        report = {
            "residual_norm": float(np.linalg.norm(solver.sylvester_residual(
                Y, model.psi, T, L, cfg.hyper), "fro")),
            "target_norm": float(np.linalg.norm(T, "fro")),
            **dict(zip(("data_cost", "coefficient_cost", "roughness_cost"),
                       solver.cost_terms(Y, model.psi, T, L, cfg.hyper)))}
    del Y
    text = graphs.json_text(out / "fit_report.json", report, pretty=True)
    solver.save_model(out / "model.json", model)
    graphs.write_text(out / "fit_report.json", text)
    log.info("fitted model on %d samples", T.shape[0])


def cmd_predict(cfg, out):
    model = solver.load_model(cfg.model_json)
    X = graphs.load_matrix_csv(cfg.x_csv)
    Y = solver.predict_krg(model, X)
    graphs.save_matrix_csv(out / "predictions.csv", Y)
    log.info("predicted %d rows", Y.shape[0])


def cmd_learn_graph(cfg, out):
    X = graphs.load_matrix_csv(cfg.x_csv)
    T = graphs.load_matrix_csv(cfg.t_csv)
    K, spec = gram_matrix(X, cfg.kernel.load_spec())
    model, L, costs = graphlearn.alternating_fit(
        K, T, cfg.hyper, cfg, log_path=out / "iterations.jsonl")
    solver.save_model(out / "model.json",
                      dataclasses.replace(model, x_train=X, spec=spec))
    graphs.save_matrix_csv(out / "laplacian.csv", L.matrix)
    graphs.save_json(out / "cost_trace.json",
                     {"cost_trace": costs[:, 1].tolist()}, pretty=True)
    log.info("graph learning finished after %d iterations", len(costs))


def cmd_cv(cfg, out):
    X = graphs.load_matrix_csv(cfg.x_csv)
    T = graphs.load_matrix_csv(cfg.t_csv)
    T0 = graphs.load_matrix_csv(cfg.t0_csv) if cfg.t0_csv is not None else None
    train = synthdata.Dataset(X=X, T=T, T0=T0)
    L = _load_laplacian(cfg, T.shape[1])
    # without a kernel, KR and KRG sweep an rbf kernel over grid.sigma_sqs
    spec = cfg.kernel.load_spec() if cfg.kernel is not None else None
    best, table = evaluation.cross_validate(
        train, L, cfg.grid, cfg.method, seed=cfg.seed, kernel_spec=spec)
    graphs.save_json(out / "cv_results.json",
                     {"best_params": best, "table": table}, pretty=True)
    log.info("cross-validation selected %s", best)


def cmd_bench(scenario, out):
    results, failures = evaluation.run_benchmark(scenario)
    evaluation.save_results_csv(out / "results.csv", results)
    evaluation.save_results_json(out / "results.json", results, failures)
    _write_plot_data(out, results, scenario)
    if failures:
        raise KrgraphError(f"{len(failures)} benchmark cells failed; "
                           f"see results.json")
    log.info("benchmark finished: %d result rows", len(results))


def _write_plot_data(out, results, scenario):
    """Per-curve files, each a slice of the test rows: NMSE against SNR at
    each n_train, and against n_train at each SNR."""
    nmse = {(r.method, r.n_train, r.snr_db): r.nmse_db
            for r in results if r.split == "test"}

    def table(path, x_name, cells):
        rows = [[x_name, *scenario.methods]]
        for x, n, snr in cells:
            rows.append([repr(float(x)), *(
                repr(float(nmse[m, n, snr])) if (m, n, snr) in nmse else ""
                for m in scenario.methods)])
        graphs.save_csv_rows(path, rows)

    if len(scenario.snr_db) > 1:
        for n in scenario.n_train:
            table(out / f"plot_nmse_vs_snr_n{n}.csv", "snr_db",
                  [(snr, n, snr) for snr in scenario.snr_db])
    if len(scenario.n_train) > 1:
        for snr in scenario.snr_db:
            table(out / evaluation.nmse_vs_n_file(snr), "n_train",
                  [(n, n, snr) for n in scenario.n_train])


def cmd_krr(cfg, out):
    if cfg.kernel_csv is not None:
        K_bar = graphs.load_matrix_csv(cfg.kernel_csv)
    else:
        L = graphs.build_laplacian(graphs.load_graph_json(cfg.graph_json))
        K_bar = evaluation.heat_kernel(L, cfg.tau)
    est = evaluation.krr_baseline(K_bar, cfg.observed_idx,
                                  np.array(cfg.x, dtype=float), cfg.mu)
    graphs.save_matrix_csv(out / "estimate.csv", est[:, None])
    log.info("krr estimate written for %d nodes", len(est))


# each command's config class and function
COMMANDS = {
    "synth": (synthdata.SynthConfig, cmd_synth),
    "ingest": (IngestConfig, cmd_ingest),
    "fit": (FitConfig, cmd_fit),
    "predict": (PredictConfig, cmd_predict),
    "learn-graph": (LearnGraphConfig, cmd_learn_graph),
    "cv": (CvConfig, cmd_cv),
    "bench": (evaluation.BenchScenario, cmd_bench),
    "krr": (KrrConfig, cmd_krr),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="krgraph",
        description="Graph-regularized kernel regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--log-level", default="INFO", type=str.upper,
                       choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"])
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level,
                        format="%(levelname)s %(name)s: %(message)s")
    out = Path(args.out_dir)
    try:
        cfg = load_config(args.config, args.command)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir {args.out_dir}: {exc}") from exc
        COMMANDS[args.command][1](cfg, out)
    # numpy raises a MemoryError of its own subclass for a failed allocation
    except (KrgraphError, MemoryError) as exc:
        error = ("MemoryError" if isinstance(exc, MemoryError)
                 else type(exc).__name__)
        json.dump({"error": error, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
