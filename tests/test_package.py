"""The package's export list, what each command imports, and the names the
benchmark calls and its tracer wraps."""
import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import build_frame, write_frame_csv

import marketgraph


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from marketgraph import *", namespace)
    missing = [name for name in marketgraph.__all__ if name not in namespace]
    assert not missing
    assert len(set(marketgraph.__all__)) == len(marketgraph.__all__)


def modules_loaded_by(code: str, *argv) -> set[str]:
    """The modules a fresh interpreter holds after running `code` with
    `argv` as its arguments."""
    src = str(Path(marketgraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    child = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(child.stdout.splitlines()[-1]))


RUN_CLI = "import sys\nfrom marketgraph.cli import main\nassert main(sys.argv[1:]) == 0"


def write_prices(path) -> Path:
    gen = np.random.default_rng(3)
    values = 100.0 * np.exp(np.cumsum(gen.normal(0, 0.01, size=(40, 3)), axis=0))
    write_frame_csv(build_frame(values, columns=["us", "uk", "jp"]), path)
    return path


def test_importing_the_package_loads_no_submodule():
    loaded = modules_loaded_by("import marketgraph")
    assert "marketgraph" in loaded
    assert sorted(m for m in loaded if m.startswith("marketgraph.")) == []


def test_dir_names_every_exported_name_and_submodule():
    modules = {path.stem for path in Path(marketgraph.__file__).parent.glob("*.py")} - {"__init__"}
    assert {*marketgraph.__all__, *modules} <= set(dir(marketgraph))


def test_analyze_loads_no_model_code(tmp_path):
    # nor xml.sax, which would bring in urllib, http and email to escape three characters
    loaded = modules_loaded_by(RUN_CLI, "analyze", write_prices(tmp_path / "p.csv"),
                               "--out", tmp_path / "out")
    assert {"marketgraph.metrics", "marketgraph.charts"} <= loaded
    unloaded = ["xml.sax"] + [f"marketgraph.{m}" for m in (
        "autodiff", "training", "mtgnn", "baselines", "checkpoint", "optim", "graph")]
    assert [m for m in unloaded if m in loaded] == []


def test_forecast_loads_no_training_code(tmp_path):
    from marketgraph.mtgnn import MtgnnConfig, MtgnnModel
    config = MtgnnConfig(num_nodes=3, input_window=8, num_layers=2, conv_channels=4,
                         residual_channels=4, skip_channels=4, embedding_dim=4, k=2)
    checkpoint = tmp_path / "checkpoint.json"
    MtgnnModel(config, marketgraph.Rng(0)).save(checkpoint, extra={
        "norm_stats": {"columns": ["us", "uk", "jp"], "mean": [4.6] * 3, "std": [1.0] * 3}})
    loaded = modules_loaded_by(RUN_CLI, "forecast", "--checkpoint", checkpoint, "--csv",
                               write_prices(tmp_path / "p.csv"), "--steps", 2,
                               "--out", tmp_path / "out")
    assert {"marketgraph.mtgnn", "marketgraph.charts"} <= loaded
    unloaded = [f"marketgraph.{m}" for m in ("training", "baselines", "metrics", "optim")]
    assert [m for m in unloaded if m in loaded] == []


def test_influence_loads_no_autodiff(tmp_path):
    adjacency = tmp_path / "adjacency.csv"
    adjacency.write_text("node,us,uk,jp\nus,0,0.5,0\nuk,0.25,0,0.5\njp,0,0.75,0\n", encoding="utf-8")
    loaded = modules_loaded_by(RUN_CLI, "influence", adjacency)
    assert "marketgraph.graph" in loaded
    unloaded = [f"marketgraph.{m}" for m in ("autodiff", "mtgnn", "training", "checkpoint", "optim")]
    assert [m for m in unloaded if m in loaded] == []


def test_synthetic_loads_no_autodiff():
    # Every benchmark set-up builds a synthetic panel; seeding it needs only Rng.
    loaded = modules_loaded_by("from marketgraph.synthetic import coupled_var_system\n"
                               "coupled_var_system(6, 40, seed=0)")
    assert {"marketgraph.synthetic", "marketgraph.rng"} <= loaded
    unloaded = [f"marketgraph.{m}" for m in ("autodiff", "mtgnn", "training", "checkpoint")]
    assert [m for m in unloaded if m in loaded] == []
    assert marketgraph.Rng is marketgraph.autodiff.Rng is marketgraph.rng.Rng


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # The tracer patches methods through the class's own __dict__, so an
    # inherited method would silently go untraced.
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"marketgraph.{mod}"), name, None))]
    missing += [f"{mod}.{cls}.{name}" for mod, cls, name in tracer.METHODS
                if name not in vars(getattr(importlib.import_module(f"marketgraph.{mod}"), cls, object))]
    assert missing == []


def test_every_package_name_the_benchmark_calls_exists():
    # The workloads call `mg.<module>.<name>` and the tracer's backward replay
    # `ad.<name>`, such as `ad.sum_`, which no traced target lists.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    workloads = re.findall(r"\bmg\.(\w+)\.(\w+)", (bench / "workloads.py").read_text(encoding="utf-8"))
    replayed = re.findall(r"\bad\.(\w+)", (bench / "tracer.py").read_text(encoding="utf-8"))
    assert workloads and "sum_" in replayed
    missing = [f"{mod}.{name}" for mod, name in {*workloads, *(("autodiff", n) for n in replayed)}
               if not hasattr(importlib.import_module(f"marketgraph.{mod}"), name)]
    assert sorted(missing) == []


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_is_documented_in_the_readme():
    # Code spans and fenced blocks: where the README names library objects.
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", README, flags=re.S))
    names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))
    assert [name for name in marketgraph.__all__ if name not in names] == []


def test_the_readme_states_the_checkpoint_format_version():
    from marketgraph.checkpoint import FORMAT_VERSION
    stated = re.findall(r"checkpoint\s+format\s+version\s+(\d+)", README)
    assert stated and set(stated) == {str(FORMAT_VERSION)}


def test_readme_library_snippet_imports():
    library = README.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, flags=re.S).group(1)
    imports = [node for node in ast.parse(snippet).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


def test_forward_passes_take_an_array_an_rng_and_collect():
    # An rng means training; there is no separate training flag to disagree with it.
    from marketgraph.autodiff import dropout
    from marketgraph.baselines import GruModel, TcnModel
    from marketgraph.mtgnn import MtgnnModel
    empty = inspect.Parameter.empty
    for cls in (MtgnnModel, GruModel, TcnModel):
        params = inspect.signature(vars(cls)["forward_batch"]).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("self", empty), ("x", empty), ("rng", None), ("collect", None)], cls.__name__
    assert "training" not in inspect.signature(dropout).parameters


def test_tape_keeps_the_length_the_tracer_reads():
    # The tracer records len(tape) for autodiff.tape.entries_per_step.
    from marketgraph.autodiff import Tape
    assert "__len__" in vars(Tape)


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "write_text":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "replace" and getattr(func.value, "id", None) == "os":
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes)
    return False


def test_only_the_atomic_writer_puts_files_on_disk():
    # Every artifact goes through data.atomic_write, so none can be left
    # half-written in place of a good one.
    writers = set()
    for module in sorted(Path(marketgraph.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call) and _writes_a_file(n)):
            owner = call
            while not isinstance(owner, (ast.FunctionDef, ast.Module)):
                owner = owner.parent
            writers.add(f"{module.name}:{getattr(owner, 'name', '<module>')}")
    assert sorted(writers) == ["data.py:atomic_write"]


def test_every_saved_model_kind_shares_the_one_model_base():
    # save, load and from_checkpoint are written once, in checkpoint.Model;
    # persistence has no parameters and so no checkpoint.
    from marketgraph.baselines import MlpSpec
    from marketgraph.checkpoint import Model
    from marketgraph.mtgnn import MtgnnModel
    from marketgraph.training import ComparisonSpec
    kinds = {}
    for path in sorted(Path(marketgraph.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"marketgraph.{path.stem}")
        kinds.update({vars(obj)["kind"]: obj for obj in vars(module).values()
                      if isinstance(obj, type) and obj.__module__ == module.__name__
                      and "kind" in vars(obj)})
    assert sorted(kinds) == ["ar", "gru", "mtgnn", "persistence", "tcn", "var_mlp"]
    assert [k for k, cls in kinds.items() if not issubclass(cls, Model)] == ["persistence"]
    assert [cls.__name__ for cls in kinds.values()
            if {"save", "load", "from_checkpoint"} & set(vars(cls))] == []
    # the names the benchmark's workloads reach
    assert MtgnnModel.load.__func__ is Model.load.__func__
    assert ComparisonSpec(mlp=MlpSpec(epochs=1)).mlp.epochs == 1


def test_every_forecast_entry_point_checks_its_windows_with_window_array():
    # data.window_array is the one check of rank, series count, length and
    # finiteness, so each model kind refuses a malformed window the same way.
    checked, unchecked = [], []
    for path in sorted(Path(marketgraph.__file__).parent.glob("*.py")):
        for cls in (n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("predict_windows", "forward_batch"):
                    calls = {n.func.id for n in ast.walk(fn)
                             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                    name = f"{cls.name}.{fn.name}"
                    (checked if "window_array" in calls else unchecked).append(name)
    assert unchecked == []
    assert sorted(checked) == [
        "ArEnsemble.predict_windows", "GruModel.forward_batch", "MtgnnModel.forward_batch",
        "NeuralModel.predict_windows", "PersistenceModel.predict_windows",
        "TcnModel.forward_batch", "VarMlpModel.predict_windows"]


def _src_nodes():
    """(module file name, node) for every AST node in src/, each node knowing its parent."""
    for module in sorted(Path(marketgraph.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            yield module.name, node


def _qualified_owner(module_name: str, node) -> str:
    """`module.py:Class.method` (or `module.py:function`) of the code holding `node`."""
    owners, owner = [], node
    while not isinstance(owner, ast.Module):
        owner = owner.parent
        if isinstance(owner, (ast.ClassDef, ast.FunctionDef)):
            owners.insert(0, owner.name)
    return f"{module_name}:{'.'.join(owners)}"


def test_only_the_tape_and_the_optimizer_rebind_gradients():
    # Adam binds each parameter's .grad to a view of its one gradient vector;
    # a .grad rebound anywhere else would detach from it. Writes through a
    # subscript (p.grad[...] = g) keep the view and are allowed anywhere.
    rebinders = set()
    for module_name, node in _src_nodes():
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(isinstance(t, ast.Attribute) and t.attr == "grad" and isinstance(t.ctx, ast.Store)
               for target in targets for t in ast.walk(target)):
            rebinders.add(_qualified_owner(module_name, node))
    assert sorted(rebinders) == [
        "autodiff.py:Tape.backward", "autodiff.py:Tensor.__init__", "autodiff.py:Tensor._from_op",
        "optim.py:Adam.__init__"]


def test_only_the_init_helpers_and_the_gradient_check_make_trainable_tensors():
    # Every model parameter is created where it is registered, by Model.weight
    # or Model.bias; grad_check makes its own leaf.
    makers = set()
    for module_name, node in _src_nodes():
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tensor":
            flags = node.args[1:2] + [k.value for k in node.keywords if k.arg == "requires_grad"]
            if any(not (isinstance(f, ast.Constant) and f.value is False) for f in flags):
                makers.add(_qualified_owner(module_name, node))
    assert sorted(makers) == ["autodiff.py:grad_check", "checkpoint.py:Model.bias", "checkpoint.py:Model.weight"]


def test_the_cli_builds_the_run_specs_only_in_parse_run_config():
    # train, compare and analyze --config read the run document through one
    # parse, so all three accept and refuse the same documents.
    builders = {f"{_qualified_owner(module_name, node)}:{node.func.id}"
                for module_name, node in _src_nodes()
                if module_name == "cli.py" and isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("ComparisonSpec", "MlpSpec", "TrainConfig")}
    assert sorted(builders) == ["cli.py:parse_run_config:ComparisonSpec",
                                "cli.py:parse_run_config:MlpSpec",
                                "cli.py:parse_run_config:TrainConfig"]


# The op functions that Tensor's operators call.
OPERATOR_OPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
                ast.USub: "neg"}


def _called(node) -> set[str]:
    """Names of the functions called in `node`, operators included."""
    nodes = list(ast.walk(node))
    return ({n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            | {OPERATOR_OPS[type(n.op)] for n in nodes
               if isinstance(n, (ast.BinOp, ast.UnaryOp)) and type(n.op) in OPERATOR_OPS})


def _dict_assigned(path: Path, name: str) -> ast.Dict:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(n.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == [name])


def test_every_op_that_records_on_the_tape_has_a_gradient_check():
    # Criterion 3's table checks ops at fixed shapes, and the GRAD_CASES of
    # test_grad_properties over random ones; every op is in one or both.
    source = Path(marketgraph.__file__).with_name("autodiff.py").read_text(encoding="utf-8")
    recording = {fn.name for fn in ast.parse(source).body
                 if isinstance(fn, ast.FunctionDef) and "_record" in _called(fn)}
    tests = Path(__file__).parent
    fixed = _called(_dict_assigned(tests / "test_acceptance.py", "checks"))
    drawn = {key.value for key in _dict_assigned(tests / "test_grad_properties.py", "GRAD_CASES").keys}
    assert len(recording) > 20
    assert sorted(recording - fixed - drawn) == []


def test_the_fit_cost_order_is_a_permutation_of_the_model_kinds():
    from marketgraph.training import FIT_COST_ORDER, MODEL_BUILDERS

    assert sorted(FIT_COST_ORDER) == sorted(MODEL_BUILDERS)
