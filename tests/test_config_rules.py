"""Every rule on a config document, one rejection case each, over all
eight commands: an unknown key (at the top level, in kernel and in grid),
a missing required key, a value of the wrong JSON type (a bool in an
integer or a number field included), each bound (a minimum, an exclusive
minimum, an even count, a non-empty list, a list without repeats), each
enumerated value, and a non-finite number.

Each case changes one key of a config that load_config accepts, and
asserts: exit 1, exactly one JSON line on stderr, the key's name in its
message, and no --out-dir made. Every case is rejected while the config
is read, so no file that the config names needs to exist.
"""

import json

import pytest

from krgraph.cli import load_config, main

KERNEL = {"kind": "rbf", "sigma_sq": 1.0}
GRID = {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3}

BASE = {
    "synth": {"num_nodes": 8, "num_samples": 12, "graph_model": "erdos_renyi",
              "graph_param": 0.4, "snr_db": 5.0, "seed": 3},
    "ingest": {"inputs_csv": "in.csv", "targets_csv": "t.csv",
               "distances_csv": "d.csv"},
    "fit": {"x_csv": "X.csv", "t_csv": "T.csv", "graph_json": "g.json",
            "kernel": KERNEL, "alpha": 0.5, "beta": 0.5},
    "predict": {"model_json": "model.json", "x_csv": "X.csv"},
    "learn-graph": {"x_csv": "X.csv", "t_csv": "T.csv", "kernel": KERNEL,
                    "alpha": 0.5, "beta": 0.5, "nu": 0.5, "max_outer_iters": 3,
                    "tol": 1e-4, "trace_budget": 2.0},
    "cv": {"x_csv": "X.csv", "t_csv": "T.csv", "t0_csv": "T0.csv",
           "graph_json": "g.json", "method": "KRG", "kernel": KERNEL,
           "grid": GRID, "seed": 0},
    "bench": {"methods": ["KR", "KRG"], "n_train": [6], "snr_db": [5.0],
              "realizations": 2, "num_nodes": 6, "num_samples": 16,
              "graph_model": "erdos_renyi", "graph_param": 0.4, "grid": GRID,
              "master_seed": 1},
    "krr": {"graph_json": "g.json", "tau": 0.5, "observed_idx": [0, 1],
            "x": [1.0, 2.0], "mu": 0.5},
}

# the keys that each command's config must give, and those in its kernel
# and grid
REQUIRED = {
    "synth": ["num_nodes", "num_samples", "graph_model", "graph_param",
              "snr_db", "seed"],
    "ingest": ["inputs_csv", "targets_csv"],
    "fit": ["x_csv", "t_csv", "kernel", "alpha", "beta", "kernel.kind"],
    "predict": ["model_json", "x_csv"],
    "learn-graph": ["x_csv", "t_csv", "kernel", "alpha", "beta", "nu",
                    "kernel.kind"],
    "cv": ["x_csv", "t_csv", "method", "grid", "seed", "kernel.kind",
           "grid.alphas", "grid.betas"],
    "bench": ["methods", "n_train", "snr_db", "realizations", "num_nodes",
              "num_samples", "graph_model", "graph_param", "grid",
              "master_seed", "grid.alphas", "grid.betas"],
    "krr": ["observed_idx", "x", "mu"],
}

# a value of the wrong JSON type for each JSON type
WRONG = {"string": 1, "integer": 1.5, "number": "1", "array": "1",
         "object": "1"}
_STRINGS = ("x_csv", "t_csv")
_KERNEL_TYPES = {"kernel": "object", "kernel.sigma_sq": "number",
                 "kernel.matrix_csv": "string"}
_GRID_TYPES = {"grid": "object", "grid.alphas": "array",
               "grid.alphas[0]": "number", "grid.betas": "array",
               "grid.betas[0]": "number", "grid.sigma_sqs": "array",
               "grid.sigma_sqs[0]": "number", "grid.folds": "integer"}
_LAW_TYPES = {"num_nodes": "integer", "num_samples": "integer",
              "graph_param": "number"}
TYPED = {
    "synth": {**_LAW_TYPES, "snr_db": "number", "seed": "integer"},
    "ingest": dict.fromkeys(("inputs_csv", "targets_csv", "distances_csv"),
                            "string"),
    "fit": {**dict.fromkeys(_STRINGS + ("graph_json", "laplacian_csv"),
                            "string"),
            **_KERNEL_TYPES, "alpha": "number", "beta": "number"},
    "predict": dict.fromkeys(("model_json", "x_csv"), "string"),
    "learn-graph": {**dict.fromkeys(_STRINGS, "string"), **_KERNEL_TYPES,
                    "alpha": "number", "beta": "number", "nu": "number",
                    "max_outer_iters": "integer", "tol": "number",
                    "trace_budget": "number"},
    "cv": {**dict.fromkeys(_STRINGS + ("t0_csv", "graph_json",
                                       "laplacian_csv"), "string"),
           **_KERNEL_TYPES, **_GRID_TYPES, "seed": "integer"},
    "bench": {"methods": "array", "n_train": "array",
              "n_train[0]": "integer", "snr_db": "array",
              "snr_db[0]": "number", "realizations": "integer", **_LAW_TYPES,
              **_GRID_TYPES, "master_seed": "integer"},
    "krr": {"kernel_csv": "string", "graph_json": "string", "tau": "number",
            "observed_idx": "array", "observed_idx[0]": "integer",
            "x": "array", "x[0]": "number", "mu": "number"},
}

# (command, key, value) of each bound and each enumerated value broken,
# and of a bool in an integer field and in a number field
VALUES = [
    ("synth", "num_nodes", 1), ("synth", "num_samples", 0),
    ("synth", "num_samples", 7), ("synth", "graph_model", "lattice"),
    ("synth", "seed", True), ("synth", "snr_db", True),
    ("synth", "graph_param", False),
    ("fit", "alpha", -1), ("fit", "beta", -0.5), ("fit", "alpha", True),
    ("fit", "kernel.kind", "poly"), ("fit", "kernel.sigma_sq", 0),
    ("learn-graph", "alpha", 0), ("learn-graph", "beta", -1),
    ("learn-graph", "nu", -1), ("learn-graph", "max_outer_iters", 0),
    ("learn-graph", "max_outer_iters", True), ("learn-graph", "tol", 0),
    ("learn-graph", "trace_budget", 0), ("learn-graph", "kernel.kind", "poly"),
    ("learn-graph", "kernel.sigma_sq", -1.0),
    ("cv", "method", "SVR"), ("cv", "kernel.kind", "poly"),
    ("cv", "kernel.sigma_sq", 0.0), ("cv", "grid.alphas", []),
    ("cv", "grid.betas", []), ("cv", "grid.folds", 1), ("cv", "seed", True),
    ("cv", "grid.folds", True), ("cv", "grid.alphas", [0.1, True]),
    ("bench", "methods", []), ("bench", "methods", ["KR", "LR"]),
    ("bench", "methods", ["KR", "KR"]), ("bench", "n_train", []),
    ("bench", "n_train", [6, 6]), ("bench", "snr_db", []),
    ("bench", "snr_db", [5, 5.0]), ("bench", "realizations", 0),
    ("bench", "num_nodes", 1), ("bench", "num_samples", 0),
    ("bench", "num_samples", 15), ("bench", "graph_model", "lattice"),
    ("bench", "grid.alphas", []), ("bench", "grid.betas", []),
    ("bench", "grid.folds", 1), ("bench", "master_seed", True),
    ("bench", "n_train", [True]), ("bench", "snr_db", [True]),
    ("krr", "tau", 0), ("krr", "mu", 0), ("krr", "mu", -1.0),
    ("krr", "observed_idx", []), ("krr", "x", []),
    ("krr", "observed_idx", [0, True]), ("krr", "x", [1.0, True]),
]

# (command, key, JSON text) of a number that is not finite, or too large
# for a float
NON_FINITE = [
    ("synth", "snr_db", "NaN"), ("synth", "seed", "1" + "0" * 400),
    ("fit", "alpha", "Infinity"), ("fit", "kernel.sigma_sq", "-Infinity"),
    ("learn-graph", "tol", "NaN"), ("cv", "grid.betas", "[0.0, 1e400]"),
    ("bench", "snr_db", "[5.0, NaN]"), ("krr", "x", "[1.0, NaN]"),
]


def _set(doc, key, value):
    """A copy of doc with the value at key ("a" or "a.b") set, or removed
    if value is _DROP."""
    doc = json.loads(json.dumps(doc))
    *parents, last = key.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


_DROP = object()


def _key_name(key):
    """The key's own name, as its rejection must state it."""
    return key.split(".")[-1].split("[")[0]


def _cases():
    for command, doc in BASE.items():
        yield command, "unknown_knob", dict(doc, unknown_knob=1)
        for section in ("kernel", "grid"):
            if section in doc:
                yield (command, "unknown_knob",
                       _set(doc, f"{section}.unknown_knob", 1))
        for key in REQUIRED[command]:
            yield command, key, _set(doc, key, _DROP)
        for key, json_type in TYPED[command].items():
            if key.endswith("[0]"):     # a list of one item of that type
                yield command, key, _set(doc, key[:-3], [WRONG[json_type]])
            else:
                yield command, key, _set(doc, key, WRONG[json_type])
    for command, key, value in VALUES:
        yield command, key, _set(BASE[command], key, value)


CASES = list(_cases())


def _case_id(case):
    command, key, doc = case
    return f"{command}-{key}-{json.dumps(doc, sort_keys=True)}"


def _assert_rejected(tmp_path, capsys, command, text, key):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert _key_name(key) in error["message"], error
    assert not out.exists()


@pytest.mark.parametrize("command", BASE)
def test_base_config_is_read(tmp_path, command):
    """Each case below breaks one rule of a config that passes them all."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE[command]), encoding="utf-8")
    load_config(str(path), command)


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_rule_broken_is_rejected(tmp_path, capsys, case):
    command, key, doc = case
    _assert_rejected(tmp_path, capsys, command, json.dumps(doc), key)


@pytest.mark.parametrize("command, key, text", NON_FINITE,
                         ids=[f"{c}-{k}-{t[:12]}" for c, k, t in NON_FINITE])
def test_non_finite_number_is_rejected(tmp_path, capsys, command, key, text):
    doc = json.dumps(_set(BASE[command], key, "@")).replace('"@"', text)
    _assert_rejected(tmp_path, capsys, command, doc, key)
