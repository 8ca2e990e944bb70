"""The traced benchmark patches chgevrey by name; every name it patches must
still resolve, so a refactor cannot silently drop a layer from the trace.
The package's imports run one way, so no module needs a deferred import, and
only ``model`` reaches into NumPy's private FFT kernels.  NumPy's
``float_power`` and ``hypot`` round as libm's ``pow`` and ``hypot``, which
the array code that replaced per-value Python operators relies on."""

import ast
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from chgevrey.spectral import SpectralField, TorusGrid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "chgevrey"
# each module imports only the ones before it; the package's __init__
# star-imports every module but cli
IMPORT_ORDER = (
    "spectral", "model", "analyticity", "integrate", "verify", "__init__", "cli",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("chgevrey_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_still_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module}.{func}"
        for module, func, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"chgevrey.{module}"), func, None))
    ]
    assert missing == []
    assert callable(SpectralField.__dict__.get("__post_init__"))
    assert isinstance(TorusGrid.__dict__.get("wavenumbers"), property)
    assert all(callable(getattr(np.fft, name, None)) for name in tracer.FFT_FUNCTIONS)


def test_the_tracer_sees_each_suite_of_run_all_suites_once():
    # install() finds chgevrey.cli in sys.modules, so it must be imported first
    import chgevrey.cli  # noqa: F401
    from chgevrey import verify

    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        try:
            reports = verify.run_all_suites(seed=42)
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    layers = [span[0] for span in tracer.spans if span[4] == 0]
    assert {suite: layers.count(f"verify.{suite}") for suite in module.SUITES} == {
        suite: 1 for suite in module.SUITES
    }
    assert tracer.layer_metrics(0)["verify.cases"] == sum(r.cases for r in reports) == 72463


def test_a_traced_simulate_op_sees_every_step_through_the_public_names(tmp_path):
    # the march must reach rhs and step_rk4 by the names the tracer patches,
    # or the traced march reports none of their time; the per-step monitored
    # norm is inline in integrate, so its time is integrate's own
    from chgevrey import cli

    steps = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "subcommand": "simulate",
        "initial_data": {"name": "cosine", "amplitude": 0.01},
        "grid": {"n_points": 16},
        "solver": {"dt": 0.01, "t_end": steps * 0.01, "record_every": 1},
    }))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        try:
            code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    edges = [(span[0], tracer.spans[span[3]][0]) for span in tracer.spans if span[3] >= 0]
    assert edges.count(("integrate.step_rk4", "integrate.integrate")) == steps
    assert edges.count(("spectral.norm", "integrate.integrate")) == 0
    assert edges.count(("model.rhs", "integrate.step_rk4")) == 4 * steps
    metrics = tracer.layer_metrics(0)
    assert metrics["integrate.step_rk4.calls"] == steps
    assert metrics["model.rhs.calls"] == 4 * steps


def test_a_traced_picard_op_sees_every_iterate_through_the_public_names(tmp_path):
    # on the bench shape F of the 512 nodes runs in row blocks inside rhs, so
    # the tracer must still count one rhs call per iterate (the first on the
    # datum row) and one ea_norm call per difference plus the scale's
    from chgevrey import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "subcommand": "picard",
        "model": {"alpha": 0.1, "beta": 0.3, "gamma": 0.2, "Gamma": 0.05, "lambda": 1.0},
        "initial_data": {"name": "cosine", "amplitude": 0.01},
        "grid": {"n_points": 64},
        "picard": {"n_iters": 8, "n_nodes": 512},
    }))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        try:
            code = cli.main(["picard", "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    edges = [(span[0], tracer.spans[span[3]][0]) for span in tracer.spans if span[3] >= 0]
    assert edges.count(("model.rhs", "integrate.picard_iterate")) == 8
    assert edges.count(("analyticity.ea_norm", "integrate.picard_iterate")) == 9
    metrics = tracer.layer_metrics(0)
    assert (metrics["model.rhs.calls"], metrics["analyticity.ea_norm.calls"]) == (8, 9)


def _relative_imports(node, in_function=False):
    """(module, inside a function) for each relative import that runs; an
    ``if TYPE_CHECKING:`` block never does.  ``from . import name`` imports
    the module ``name``, or the package's ``__init__`` where no such module is."""
    if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
        return
    if isinstance(node, ast.ImportFrom) and node.level:
        for target in [node.module] if node.module else [a.name for a in node.names]:
            yield (target if (SRC / f"{target}.py").is_file() else "__init__"), in_function
    in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for child in ast.iter_child_nodes(node):
        yield from _relative_imports(child, in_function)


def test_imports_run_one_way():
    assert sorted(IMPORT_ORDER) == sorted(path.stem for path in SRC.glob("*.py"))
    for position, name in enumerate(IMPORT_ORDER):
        imports = list(_relative_imports(ast.parse((SRC / f"{name}.py").read_text())))
        assert [module for module, inside in imports if inside] == [], name
        assert {module for module, _ in imports} <= set(IMPORT_ORDER[:position]), name


def _imported_modules(tree) -> set:
    """Every absolute module an import statement in ``tree`` names, and each
    ``module.name`` that a ``from module import name`` binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_model_imports_the_private_pocketfft_kernels():
    private = "numpy.fft._pocketfft_umath"
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        if any(name.startswith(private) for name in _imported_modules(ast.parse(path.read_text())))
    }
    assert importers == {"model"}


def test_only_integrate_shadows_its_submodule_on_the_package():
    # the star imports bind the function integrate over the package attribute of
    # its module; a monkeypatch of that module must go through sys.modules
    package = importlib.import_module("chgevrey")
    modules = [path.stem for path in SRC.glob("*.py") if path.stem != "__init__"]
    loaded = {name: importlib.import_module(f"chgevrey.{name}") for name in modules}
    shadowed = {name for name in modules if getattr(package, name, loaded[name]) is not loaded[name]}
    assert shadowed == {"integrate"}
    assert package.integrate is loaded["integrate"].integrate


def _unused_imports(tree) -> list:
    """Names an import statement in ``tree`` binds that the module never reads
    and its ``__all__`` does not export; star and ``__future__`` imports bind
    none to check."""
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            read.update(getattr(elt, "value", None) for elt in getattr(node.value, "elts", ()))
    return [name for name in bound if name not in read]


def test_every_imported_name_is_used():
    unused = {
        path.stem: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


def _per_value(op, *columns) -> np.ndarray:
    """op on each value (each tuple of values) as Python numbers; an
    OverflowError reads inf."""
    out = []
    for args in zip(*(column.tolist() for column in columns)):
        try:
            out.append(op(*args))
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def test_float_power_and_hypot_round_as_libms_pow_and_hypot():
    # functional_H, random_field, ea_norm and the commutator suite take powers
    # with np.float_power and |z| with np.hypot to get the bits of Python's
    # x**e and abs(complex); np.power, np.square, ** and np.abs on complex
    # round differently on some values and some SIMD targets
    rng = np.random.default_rng(37)
    x = 10.0 ** rng.uniform(-200.0, 200.0, 20_000)
    y = x[::-1] * rng.choice([-1.0, 1.0], x.size)
    m = np.arange(1, 20_001)
    with np.errstate(over="ignore"):
        checks = {
            "float_power(x, 2.0) vs x**2": (np.float_power(x, 2.0), _per_value(lambda v: v**2, x)),
            "float_power(x, 3.0) vs x**3": (np.float_power(x, 3.0), _per_value(lambda v: v**3, x)),
            "float_power(m, -2.0) vs m**-2.0": (
                np.float_power(m, -2.0),
                _per_value(lambda k: k**-2.0, m),
            ),
            "hypot(x, y) vs abs(complex(x, y))": (
                np.hypot(x, y),
                _per_value(lambda re, im: abs(complex(re, im)), x, y),
            ),
        }
    differ = {
        name: int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        for name, (got, want) in checks.items()
    }
    assert differ == dict.fromkeys(checks, 0), f"NumPy no longer rounds as libm does: {differ}"
