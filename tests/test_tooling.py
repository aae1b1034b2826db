"""The shipped configs stay runnable, the README names only files that
exist, and the package keeps its start-up and its structure lean."""

import ast
import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import typing
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import pytest

from krgraph.cli import COMMANDS, load_config
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
    assert _command(path) in COMMANDS, f"no command for {path.name}"
    load_config(str(path), _command(path))


def _readable(hint):
    """Whether cli.load_config can read a JSON value into a field of this
    annotation: an int, float or str, a frozen dataclass of such fields, a
    Sequence of one of these, or an Optional one."""
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = set(args) - {type(None)}
        args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return (hint.__dataclass_params__.frozen
                and all(map(_readable, typing.get_type_hints(hint).values())))
    if typing.get_origin(hint) is Sequence:
        return _readable(args[0])
    return hint in (int, float, str)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_schema_is_valid_under_its_metaschema(command):
    """Each command's schema is its config dataclass, and the annotations
    that load_config reads are its metaschema: a field of any other
    annotation would fail while a config is read, not be rejected."""
    assert _readable(COMMANDS[command][0])


def _config_class(command, *keys):
    """The dataclass that load_config fills at keys of command's config."""
    cls = COMMANDS[command][0]
    for key in keys:
        cls = typing.get_type_hints(cls)[key]
    return cls


@pytest.mark.parametrize("cls, holders", [
    (SynthConfig, [("synth",)]),
    (BenchScenario, [("bench",)]),
    (CvGrid, [("cv", "grid"), ("bench", "grid")]),
    (GraphLearnConfig, [("learn-graph",)]),
    (Hyperparams, [("fit",), ("learn-graph",)]),
], ids=["synth", "bench", "grid", "learn_graph", "hyperparams"])
def test_config_keys_are_field_names(cls, holders):
    """load_config fills each field of these dataclasses from the config
    key of its name, with the dataclass's own default, so each default is
    stated once; alpha and beta fill Hyperparams in fit and learn-graph
    alike."""
    for path in holders:
        read = {f.name: f.default
                for f in dataclasses.fields(_config_class(*path))}
        expected = {f.name: f.default for f in dataclasses.fields(cls)}
        assert expected.items() <= read.items()


# modules whose import would grow the CLI's start-up time: scipy itself
# (numpy runs every decomposition and draw, and no command needs scipy),
# the statistics package, the iterative and randomized
# eigensolvers that the spectral cache does without, the process pool,
# which only bench's run imports, and jsonschema with the packages it
# brings (cli.load_config reads each config into its dataclass)
@pytest.mark.parametrize("module", ["scipy", "scipy.stats",
                                    "scipy.sparse.linalg",
                                    "scipy.linalg.interpolative",
                                    "multiprocessing", "concurrent.futures",
                                    "jsonschema", "attrs", "referencing",
                                    "rpds"])
def test_cli_import_does_not_load_scipy_stats(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, krgraph.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# results.csv of the shipped sweep; perfbench/snr_reference.json records
# the digest of an earlier data law and solver, whose NMSE column agrees
# with this file to the benchmark's tolerance
SHIPPED_SNR_SWEEP_SHA256 = (
    "7b65efd234e6aa606c8bc66b234fd7e73c3bea5d8efd61b9b0f76ed1d1183c9e")
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


@pytest.mark.parametrize("workload", ["snr_sweep", "fit_predict",
                                      "learn_graph"])
def test_benchmark_smoke_workload_passes_its_checks(workload):
    """The benchmark's own numpy-only output checks (the Sylvester
    residual, the predictions, the unit-radius Laplacian, the nonincreasing
    cost) pass on each workload's smoke inputs; its last line is a JSON
    summary."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--smoke", "--trace", "0", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), proc.stderr


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


def _absolute_imports():
    """(file name, module) of each absolute import under src/krgraph."""
    imports = []
    for path in sorted((ROOT / "src" / "krgraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    return imports


def test_no_module_imports_scipy():
    """The package runs on numpy alone: no module imports scipy, whose
    package inits cost 0.2 s and more."""
    assert [i for i in _absolute_imports()
            if i[1].split(".")[0] == "scipy"] == []


def test_runtime_dependencies_are_the_imported_packages():
    """pyproject.toml lists as runtime dependencies exactly the
    third-party packages that src/krgraph imports; test-only packages
    belong to the test extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml")
                            .read_text(encoding="utf-8"))["project"]
    listed = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0]
              for d in project["dependencies"]}
    imported = {module.split(".")[0] for _, module in _absolute_imports()}
    assert listed == imported - set(sys.stdlib_module_names)
    assert "scipy" in project["optional-dependencies"]["test"]


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


def _field_listers(path):
    """(module, callee) of each call of dataclasses.fields, fields, vars
    or asdict in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(path.name, ast.unparse(node.func)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "fields", "dataclasses.fields", "vars", "asdict",
                "dataclasses.asdict")]


def test_only_graphs_maps_a_dataclass_to_json():
    """graphs.read_object and graphs.object_json are the one mapping
    between a frozen dataclass and a JSON object, for the configs, the
    manifests, the model file and results.json: no other module lists a
    dataclass's fields or an object's attributes."""
    listers = [c for p in sorted((ROOT / "src" / "krgraph").glob("*.py"))
               for c in _field_listers(p)]
    assert listers and all(module == "graphs.py" for module, _ in listers), \
        listers


def test_cli_names_no_method():
    """The method names, and which of them the bench runs or pins beta to
    0 for, are stated in evaluation; cli reads them from there."""
    tree = ast.parse((ROOT / "src" / "krgraph" / "cli.py").read_text(
        encoding="utf-8"))
    assert [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and n.value in METHODS] == []


def _is_writer(name):
    """Whether the function of this name writes a file."""
    return name == "write_text" or name.startswith("save_")


def _file_writes(path):
    """(module, innermost enclosing def, None at module level) of each
    call of a writer in the module at path."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_writer(
                    getattr(child.func, "id", None)
                    or getattr(child.func, "attr", "")):
                found.append((path.name, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_writers_write_outside_cli():
    """A command's files are written by cli, or by a writer that cli calls
    (a save_* function, or graphs.write_text itself): a library algorithm
    hands its results back, and opens no output file."""
    writes = [w for p in MODULES if p.name != "cli.py"
              for w in _file_writes(p)]
    assert writes and [w for w in writes
                       if not _is_writer(w[1] or "")] == []


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


def _layers():
    """perfbench/tracer.py:LAYERS, read from the file's AST without
    importing it: (layer name, module, attribute path, stats) each."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS"
                        for t in node.targets))


def _layer_names():
    """Each part of each attribute path that a perfbench layer wraps."""
    return {part for _, _, path, _ in _layers() for part in path.split(".")}


def test_every_perfbench_layer_resolves():
    """Each module and attribute path that a perfbench layer wraps imports
    from src/krgraph. The tracer lists a target it cannot find as absent
    and drops its metrics, so a rename fails here instead."""
    def resolves(module, path):
        try:
            target = importlib.import_module(module)
        except ImportError:
            return False
        package = Path(target.__file__).resolve().parent
        for part in path.split("."):
            target = getattr(target, part, None)
        return package == ROOT / "src" / "krgraph" and target is not None

    assert [name for name, module, path, _ in _layers()
            if not resolves(module, path)] == []


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
