"""The shipped configs stay runnable, the README names only files that
exist, and the config schemas match the dataclasses they fill."""

import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from jsonschema.validators import validator_for

from krgraph.cli import SCHEMAS
from krgraph.evaluation import METHODS, BenchScenario, CvGrid
from krgraph.graphlearn import GraphLearnConfig
from krgraph.solver import Hyperparams
from krgraph.synthdata import SynthConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _command(path):
    """bench_*.json configs the bench command, <command>_*.json the others."""
    return "bench" if path.stem.startswith("bench_") else path.stem.split("_")[0]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_validates(path):
    assert _command(path) in SCHEMAS, f"no schema for {path.name}"
    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")),
                        SCHEMAS[_command(path)])


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_is_valid_under_its_metaschema(command):
    """load_config validates each config against a schema it does not check
    itself; each schema is checked here, once."""
    schema = SCHEMAS[command]
    validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("cls, keys", [
    (SynthConfig, SCHEMAS["synth"]["properties"]),
    (BenchScenario, SCHEMAS["bench"]["properties"]),
    (CvGrid, SCHEMAS["cv"]["properties"]["grid"]["properties"]),
    (GraphLearnConfig, set(SCHEMAS["learn-graph"]["properties"])
     - {"x_csv", "t_csv", "kernel"} - {"alpha", "beta"}),
    (Hyperparams, set(SCHEMAS["fit"]["properties"])
     & set(SCHEMAS["learn-graph"]["properties"]) - {"x_csv", "t_csv", "kernel"}),
], ids=["synth", "bench", "grid", "learn_graph", "hyperparams"])
def test_config_keys_are_field_names(cls, keys):
    """The CLI builds these dataclasses from the config's own keys, so each
    default is stated only on the dataclass; alpha and beta fill
    Hyperparams in fit and learn-graph alike."""
    assert {f.name for f in dataclasses.fields(cls)} == set(keys)


# modules whose import would grow the CLI's start-up time: scipy itself
# (numpy runs every decomposition; only the data sampler imports scipy's
# BLAS, in its body), the statistics package, the iterative and
# randomized eigensolvers that the spectral cache does without, and the
# process pool, which only bench's run imports
@pytest.mark.parametrize("module", ["scipy", "scipy.stats",
                                    "scipy.sparse.linalg",
                                    "scipy.linalg.interpolative",
                                    "multiprocessing", "concurrent.futures"])
def test_cli_import_does_not_load_scipy_stats(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, krgraph.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# results.csv of the shipped sweep since L's null space is exact; the
# digest in perfbench/snr_reference.json predates that change, and its
# NMSE column agrees with this file to the benchmark's tolerance
SHIPPED_SNR_SWEEP_SHA256 = (
    "1f2064b8c54583083787369a4bbc999116226aec71c91d9d84a65a43060f27cc")
REFERENCE_DB_TOL = 1e-8   # perfbench/checks.py's NMSE agreement


def _first_cpu_only():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("preexec_fn", [None, _first_cpu_only],
                         ids=["all_cpus", "one_cpu"])
def test_shipped_snr_sweep_matches_its_reference(tmp_path, preexec_fn):
    """The paper's experiment as shipped (master_seed 2026) writes the
    results.csv of SHIPPED_SNR_SWEEP_SHA256, whose NMSE column is within
    REFERENCE_DB_TOL of the one perfbench/snr_reference.json records for
    that seed; BLAS runs on one thread, as when the reference was recorded.
    The bytes are the same on one forked worker per CPU as in one process
    (one_cpu)."""
    config = ROOT / "configs" / "bench_snr_sweep.json"
    assert json.loads(config.read_text(encoding="utf-8"))["master_seed"] == 2026
    reference = json.loads((ROOT / "perfbench" / "snr_reference.json")
                           .read_text(encoding="utf-8"))["2026"]["nmse_db"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "krgraph", "bench", "--config", str(config),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    results = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(results).hexdigest() == SHIPPED_SNR_SWEEP_SHA256
    nmse = [float(row.split(",")[4])
            for row in results.decode("utf-8").splitlines()[1:]]
    assert nmse == pytest.approx(reference, rel=0, abs=REFERENCE_DB_TOL)


def test_readme_names_only_existing_paths():
    """Each configs/, scripts/, tests/ or perfbench/ path (or glob) that the
    README names matches a file in the repository."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\b(?:configs|scripts|tests|perfbench)/[\w./*-]*\w",
                           readme))
    assert named
    assert sorted(p for p in named if not any(ROOT.glob(p))) == []


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(block + "\nassert y.shape == (20,)\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path):
    """Names a module imports and never reads; __future__ imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


MODULES = sorted(p for p in (ROOT / "src" / "krgraph").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("name", ["cli.py", "evaluation.py", "graphlearn.py"])
def test_only_the_solver_reads_the_spectral_cache(name):
    """The Gram's eigenbasis, and its complement when the Gram is held in
    its numerical range, stay inside solver: its callers read no eigenpair
    field of a cache, nor the origin that fit_krg logs, and call no
    eigenbasis solve, only the solves and the grid scorer that add the
    complement term themselves."""
    tree = ast.parse((ROOT / "src" / "krgraph" / name).read_text(
        encoding="utf-8"))
    attributes = {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    names = {n.id if isinstance(n, ast.Name) else n.name
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.alias))}
    assert attributes & {"u", "v", "theta", "lam", "origin"} == set()
    assert "solve_sylvester_eigenbasis" not in attributes | names


def test_cli_names_no_method():
    """The method names, and which of them the bench runs or pins beta to
    0 for, are stated in evaluation; cli reads them from there."""
    tree = ast.parse((ROOT / "src" / "krgraph" / "cli.py").read_text(
        encoding="utf-8"))
    assert [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and n.value in METHODS] == []


def _directory_makers(path):
    """(module, top-level definition) of each mkdir or makedirs call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(path.name, getattr(top, "name", None))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("mkdir", "makedirs")]


def test_only_main_makes_a_directory():
    """cli.main makes --out-dir, and every command writes into it."""
    paths = sorted((ROOT / "src" / "krgraph").glob("*.py"))
    assert [m for p in paths for m in _directory_makers(p)] == [
        ("cli.py", "main")]


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and each
    non-dunder method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    yield f"{top.name}.{node.name}", node


def _referenced_names(node):
    """Counter of the names node reads, as ast.Name ids or ast.Attribute
    attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _layer_names():
    """Each part of each attribute path that perfbench/tracer.py:LAYERS
    wraps, read from the file's AST without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS"
                          for t in node.targets))
    return {part for _, _, path, _ in layers for part in path.split(".")}


def test_every_definition_is_reached():
    """Each definition in the package is named somewhere outside its own
    body: in another package module or definition, in the acceptance gate,
    or in a perfbench layer; the package __init__ and the unit tests do not
    count, so code that only they call is reported."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    package = sum(map(_referenced_names, trees), Counter())
    outside = (_referenced_names(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
        .keys() | _layer_names())
    unreached = [qualname for tree in trees
                 for qualname, node in _definitions(tree)
                 if node.name not in outside
                 and package[node.name] <= _referenced_names(node)[node.name]]
    assert unreached == []


def _defaulted_parameters(tree):
    """(function name, parameter name, position) of each parameter with a
    default of each function and method; the position is among the
    arguments a call passes, so a method's self is not counted, and is
    None for a keyword-only parameter."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = isinstance(parent, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            for i in range(len(positional) - len(args.defaults),
                           len(positional)):
                yield node.name, positional[i].arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _settings(tree):
    """(callee name, number of positional arguments, keyword names) of
    each call; a * or ** argument counts as setting every position or
    every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
                node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, float("inf") if starred else len(node.args),
                   keywords)


# cli.main's argv is None when the console script calls main()
UNSET_DEFAULTS_ALLOWED = {("main", "argv")}


def test_every_default_is_set_by_some_caller():
    """Each default-valued parameter in the package is set, by keyword or
    by position, by a call in the package or in the acceptance gate, the
    callee matched by name: a parameter that only the unit tests set is a
    knob with no user."""
    paths = sorted((ROOT / "src" / "krgraph").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    calls = [call for tree in trees + [ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))]
        for call in _settings(tree)]
    unset = [(function, parameter)
             for tree in trees
             for function, parameter, position in _defaulted_parameters(tree)
             if not any(name == function and (
                 parameter in keywords or None in keywords
                 or position is not None and count > position)
                 for name, count, keywords in calls)]
    assert sorted(set(unset) - UNSET_DEFAULTS_ALLOWED) == []
