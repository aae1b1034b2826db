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
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import evaluation, graphlearn, graphs, solver, synthdata
from .errors import ConfigError, DataFormatError, KrgraphError
from .kernels import KernelSpec, gram_matrix

log = logging.getLogger("krgraph")


# ---------------------------------------------------------------------------
# Config schemas (unknown keys rejected everywhere)

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["linear", "rbf", "precomputed"]},
        "sigma_sq": {"type": "number", "exclusiveMinimum": 0},
        "matrix_csv": {"type": "string"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "alphas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "betas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "sigma_sqs": {"type": "array", "items": {"type": "number"}},
        "folds": {"type": "integer", "minimum": 2},
    },
    "required": ["alphas", "betas"],
    "additionalProperties": False,
}

# fit and cv read either key through _load_laplacian
_GRAPH_PROPERTIES = {
    "graph_json": {"type": "string"},
    "laplacian_csv": {"type": "string"},
}

# the synthetic law, which synth draws once and bench once per realization
_SYNTH_LAW_PROPERTIES = {
    "num_nodes": {"type": "integer", "minimum": 2},
    "num_samples": {"type": "integer", "minimum": 2, "multipleOf": 2},
    "graph_model": {"enum": ["erdos_renyi", "barabasi_albert"]},
    "graph_param": {"type": "number"},
}

SCHEMAS = {
    "synth": {
        "type": "object",
        "properties": {
            **_SYNTH_LAW_PROPERTIES,
            "snr_db": {"type": "number"},
            "seed": {"type": "integer"},
        },
        "required": [*_SYNTH_LAW_PROPERTIES, "snr_db", "seed"],
        "additionalProperties": False,
    },
    "ingest": {
        "type": "object",
        "properties": {
            "inputs_csv": {"type": "string"},
            "targets_csv": {"type": "string"},
            "distances_csv": {"type": "string"},
        },
        "required": ["inputs_csv", "targets_csv"],
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {
            "x_csv": {"type": "string"},
            "t_csv": {"type": "string"},
            **_GRAPH_PROPERTIES,
            "kernel": _KERNEL_SCHEMA,
            "alpha": {"type": "number", "minimum": 0},
            "beta": {"type": "number", "minimum": 0},
        },
        "required": ["x_csv", "t_csv", "kernel", "alpha", "beta"],
        "additionalProperties": False,
    },
    "predict": {
        "type": "object",
        "properties": {
            "model_json": {"type": "string"},
            "x_csv": {"type": "string"},
        },
        "required": ["model_json", "x_csv"],
        "additionalProperties": False,
    },
    "learn-graph": {
        "type": "object",
        "properties": {
            "x_csv": {"type": "string"},
            "t_csv": {"type": "string"},
            "kernel": _KERNEL_SCHEMA,
            "alpha": {"type": "number", "exclusiveMinimum": 0},
            "beta": {"type": "number", "minimum": 0},
            "nu": {"type": "number", "minimum": 0},
            "max_outer_iters": {"type": "integer", "minimum": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0},
            "trace_budget": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["x_csv", "t_csv", "kernel", "alpha", "beta", "nu"],
        "additionalProperties": False,
    },
    "cv": {
        "type": "object",
        "properties": {
            "x_csv": {"type": "string"},
            "t_csv": {"type": "string"},
            "t0_csv": {"type": "string"},
            **_GRAPH_PROPERTIES,
            "method": {"enum": list(evaluation.METHODS)},
            "kernel": _KERNEL_SCHEMA,
            "grid": _GRID_SCHEMA,
            "seed": {"type": "integer"},
        },
        "required": ["x_csv", "t_csv", "method", "grid", "seed"],
        "additionalProperties": False,
    },
    "bench": {
        "type": "object",
        "properties": {
            "methods": {"type": "array",
                        "items": {"enum": list(evaluation.BENCH_METHODS)},
                        "minItems": 1, "uniqueItems": True},
            "n_train": {"type": "array", "items": {"type": "integer"},
                        "minItems": 1, "uniqueItems": True},
            "snr_db": {"type": "array", "items": {"type": "number"},
                       "minItems": 1, "uniqueItems": True},
            "realizations": {"type": "integer", "minimum": 1},
            **_SYNTH_LAW_PROPERTIES,
            "grid": _GRID_SCHEMA,
            "master_seed": {"type": "integer"},
        },
        "required": ["methods", "n_train", "snr_db", "realizations",
                     *_SYNTH_LAW_PROPERTIES, "grid", "master_seed"],
        "additionalProperties": False,
    },
    "krr": {
        "type": "object",
        "properties": {
            "kernel_csv": {"type": "string"},
            "graph_json": {"type": "string"},
            "tau": {"type": "number", "exclusiveMinimum": 0},
            "observed_idx": {"type": "array", "items": {"type": "integer"},
                             "minItems": 1},
            "x": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "mu": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["observed_idx", "x", "mu"],
        "additionalProperties": False,
    },
}


def _non_finite_number(doc, path="config"):
    """The key path of the first number in doc that is NaN, infinite, or
    too large for a float, else None; JSON's reader accepts NaN and
    Infinity, and reads 1e400 as infinity."""
    if isinstance(doc, dict):
        items = ((f"{path}.{key}", v) for key, v in doc.items())
    elif isinstance(doc, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        is_number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
        return path if is_number and not abs(doc) <= sys.float_info.max else None
    for item_path, value in items:
        found = _non_finite_number(value, item_path)
        if found is not None:
            return found
    return None


def load_config(path, command):
    try:
        cfg = graphs.load_json(path)
    except DataFormatError as exc:
        raise ConfigError(f"config {exc}") from exc
    bad = _non_finite_number(cfg)
    if bad is not None:
        raise ConfigError(f"{bad} is not a finite number")
    # jsonschema.validate without its check of the constant schema itself
    schema = SCHEMAS[command]
    error = best_match(validator_for(schema)(schema).iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config invalid for {command!r}: "
                          f"config{error.json_path[1:]}: {error.message}")
    return cfg


# the one key besides "kind" that each kernel kind reads
_KERNEL_PARAMETER = {"linear": None, "rbf": "sigma_sq",
                     "precomputed": "matrix_csv"}


def _kernel_spec(doc):
    unread = doc.keys() - {"kind", _KERNEL_PARAMETER[doc["kind"]]}
    if unread:
        raise ConfigError(f"a {doc['kind']} kernel does not read "
                          f"{', '.join(sorted(unread))}")
    if doc["kind"] == "precomputed":
        if "matrix_csv" not in doc:
            raise ConfigError("precomputed kernel needs matrix_csv")
        return KernelSpec(kind="precomputed",
                          precomputed=graphs.load_matrix_csv(doc["matrix_csv"]))
    return KernelSpec(kind=doc["kind"], sigma_sq=doc.get("sigma_sq"))


def _load_laplacian(cfg, num_nodes, betas):
    """The config's graph, else the edgeless graph on num_nodes nodes; a
    beta in betas above 0 needs a graph."""
    if {"graph_json", "laplacian_csv"} <= cfg.keys():
        raise ConfigError("give graph_json or laplacian_csv, not both")
    if "graph_json" in cfg:
        return graphs.build_laplacian(graphs.load_graph_json(cfg["graph_json"]))
    if "laplacian_csv" in cfg:
        return graphs.Laplacian(graphs.load_matrix_csv(cfg["laplacian_csv"]))
    if any(beta > 0 for beta in betas):
        raise ConfigError("beta > 0 requires graph_json or laplacian_csv")
    return graphs.Laplacian(np.zeros((num_nodes, num_nodes)))


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(cfg, out):
    train, test, graph, C_S = synthdata.make_synthetic_dataset(
        synthdata.SynthConfig(**cfg))
    for name, matrix in [("X_train", train.X), ("T_train", train.T),
                         ("T0_train", train.T0), ("X_test", test.X),
                         ("T0_test", test.T0), ("kernel_full", C_S)]:
        graphs.save_matrix_csv(out / f"{name}.csv", matrix)
    graphs.save_graph_json(out / "graph.json", graph)
    graphs.save_json(out / "manifest.json", {"config": cfg}, pretty=True)
    log.info("wrote synthetic dataset to %s", out)


def cmd_ingest(cfg, out):
    X = graphs.load_matrix_csv(cfg["inputs_csv"], header=True)
    T = graphs.load_matrix_csv(cfg["targets_csv"])
    if X.shape[0] != T.shape[0]:
        raise DataFormatError(
            f"row count mismatch: {X.shape[0]} inputs vs {T.shape[0]} targets"
        )
    g = None
    if "distances_csv" in cfg:
        D = graphs.load_matrix_csv(cfg["distances_csv"])
        if D.shape != (T.shape[1], T.shape[1]):
            raise DataFormatError(
                f"distances_csv is {D.shape[0]} x {D.shape[1]}, but the "
                f"targets have {T.shape[1]} columns, one per node")
        g = graphs.geodesic_adjacency(D)
    graphs.save_matrix_csv(out / "X.csv", X)
    graphs.save_matrix_csv(out / "T.csv", T)
    manifest = {"config": cfg, "n": int(X.shape[0]),
                "input_dim": int(X.shape[1]), "num_nodes": int(T.shape[1])}
    if g is not None:
        graphs.save_graph_json(out / "graph.json", g)
        manifest["graph"] = "graph.json"
    graphs.save_json(out / "manifest.json", manifest, pretty=True)
    log.info("ingested %d rows", X.shape[0])


def cmd_fit(cfg, out):
    X = graphs.load_matrix_csv(cfg["x_csv"])
    T = graphs.load_matrix_csv(cfg["t_csv"])
    L = _load_laplacian(cfg, T.shape[1], [cfg["beta"]])
    hyper = solver.Hyperparams(alpha=cfg["alpha"], beta=cfg["beta"])
    K, spec = gram_matrix(X, _kernel_spec(cfg["kernel"]))
    model = solver.fit_krg(K, T, L, hyper, x_train=X, spec=spec)
    Y = K @ model.psi  # the report's one Gram product
    del K
    solver.save_model(out / "model.json", model)
    residual = solver.sylvester_residual(Y, model.psi, T, L, hyper)
    costs = solver.cost_terms(Y, model.psi, T, L, hyper)
    graphs.save_json(out / "fit_report.json", {
        "residual_norm": float(np.linalg.norm(residual, "fro")),
        "target_norm": float(np.linalg.norm(T, "fro")),
        **dict(zip(("data_cost", "coefficient_cost", "roughness_cost"), costs)),
    }, pretty=True)
    log.info("fitted model on %d samples", Y.shape[0])


def cmd_predict(cfg, out):
    model = solver.load_model(cfg["model_json"])
    X = graphs.load_matrix_csv(cfg["x_csv"])
    Y = solver.predict_krg(model, X)
    graphs.save_matrix_csv(out / "predictions.csv", Y)
    log.info("predicted %d rows", Y.shape[0])


def cmd_learn_graph(cfg, out):
    X = graphs.load_matrix_csv(cfg["x_csv"])
    T = graphs.load_matrix_csv(cfg["t_csv"])
    K, spec = gram_matrix(X, _kernel_spec(cfg["kernel"]))
    gl_cfg = graphlearn.GraphLearnConfig(
        **{f.name: cfg[f.name]
           for f in dataclasses.fields(graphlearn.GraphLearnConfig)
           if f.name in cfg})
    hyper = solver.Hyperparams(alpha=cfg["alpha"], beta=cfg["beta"])
    model, L, costs = graphlearn.alternating_fit(
        K, T, hyper, gl_cfg, log_path=out / "iterations.jsonl")
    solver.save_model(out / "model.json",
                      dataclasses.replace(model, x_train=X, spec=spec))
    graphs.save_matrix_csv(out / "laplacian.csv", L.matrix)
    graphs.save_json(out / "cost_trace.json",
                     {"cost_trace": costs[:, 1].tolist()}, pretty=True)
    log.info("graph learning finished after %d iterations", len(costs))


def cmd_cv(cfg, out):
    X = graphs.load_matrix_csv(cfg["x_csv"])
    T = graphs.load_matrix_csv(cfg["t_csv"])
    T0 = graphs.load_matrix_csv(cfg["t0_csv"]) if "t0_csv" in cfg else None
    train = synthdata.Dataset(X=X, T=T, T0=T0)
    grid = evaluation.CvGrid(**cfg["grid"])
    # KR and LR fit at beta = 0 whatever the grid holds
    graph_free = cfg["method"] in evaluation.GRAPH_FREE
    L = _load_laplacian(cfg, T.shape[1], () if graph_free else grid.betas)
    # without a kernel, KR and KRG sweep an rbf kernel over grid.sigma_sqs
    spec = _kernel_spec(cfg["kernel"]) if "kernel" in cfg else None
    best, table = evaluation.cross_validate(
        train, L, grid, cfg["method"], seed=cfg["seed"], kernel_spec=spec)
    graphs.save_json(out / "cv_results.json",
                     {"best_params": best, "table": table}, pretty=True)
    log.info("cross-validation selected %s", best)


def cmd_bench(cfg, out):
    scenario = evaluation.BenchScenario(
        **{**cfg, "grid": evaluation.CvGrid(**cfg["grid"])})
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
    if "kernel_csv" in cfg and {"graph_json", "tau"} & cfg.keys():
        raise ConfigError("krr reads kernel_csv, or graph_json with tau, "
                          "not both")
    if "kernel_csv" in cfg:
        K_bar = graphs.load_matrix_csv(cfg["kernel_csv"])
    elif "graph_json" in cfg and "tau" in cfg:
        L = graphs.build_laplacian(graphs.load_graph_json(cfg["graph_json"]))
        K_bar = evaluation.heat_kernel(L, cfg["tau"])
    else:
        raise ConfigError("krr needs kernel_csv, or graph_json with tau")
    est = evaluation.krr_baseline(K_bar, cfg["observed_idx"],
                                  np.array(cfg["x"], dtype=float), cfg["mu"])
    graphs.save_matrix_csv(out / "estimate.csv", est[:, None])
    log.info("krr estimate written for %d nodes", len(est))


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "learn-graph": cmd_learn_graph,
    "cv": cmd_cv,
    "bench": cmd_bench,
    "krr": cmd_krr,
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
        COMMANDS[args.command](cfg, out)
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
