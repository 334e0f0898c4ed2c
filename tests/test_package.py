"""The package namespace: public names resolve, on first use, to their submodules' objects."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import bdw

SUBMODULES = [
    "bivariate", "cli", "datasets", "fit_bayes", "fit_commands", "fit_ml", "generator", "gof",
    "mobw", "properties", "sampling", "univariate", "weibull",
]
# the modules that define no public name: a star import loads neither
_NO_EXPORTS = ("cli", "fit_commands")


def _src_env() -> dict:
    # this tree's src first on the path of a child interpreter
    src = str(pathlib.Path(bdw.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_public_names_are_their_submodules_objects():
    for name in bdw.__all__:
        if name == "__version__":
            continue
        obj = getattr(bdw, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("bdw.") and getattr(home, name) is obj, name


def test_dataset_container_is_one_object():
    # it lives in the data layer; the ML-fit layer imports the name, so a
    # pickle that names bdw.fit_ml still loads
    import pickle

    from bdw import datasets, fit_ml

    assert bdw.BivariateDataset is fit_ml.BivariateDataset is datasets.BivariateDataset
    data = datasets.builtin_dataset("nasal")
    old = pickle.dumps(data, protocol=0).replace(b"bdw.datasets\n", b"bdw.fit_ml\n")
    assert b"bdw.fit_ml\n" in old and pickle.loads(old) == data


def test_law_in_rates_is_one_object():
    # the law in rates lives in the law layer; the latent layer re-exports
    # it, so a pickle that names bdw.mobw loads
    import pickle

    from bdw import bivariate, mobw

    assert bdw.MOBWParams is bivariate.MOBWParams is mobw.MOBWParams
    law = bivariate.MOBWParams(1.5, 0.1, 0.3, 0.2)
    old = pickle.dumps(law, protocol=0).replace(b"bdw.bivariate\n", b"bdw.mobw\n")
    assert b"bdw.mobw\n" in old and pickle.loads(old) == law


def test_dw_fits_reexport_the_dw_law():
    # the DW law lives in its own layer; the fits' module re-exports its
    # public names as the same objects, and only its fits are its own
    from bdw import univariate, weibull

    for name in weibull.__all__:
        assert name in univariate.__all__ and getattr(univariate, name) is getattr(weibull, name)
    own = {
        name for name in univariate.__all__
        if getattr(univariate, name).__module__ == "bdw.univariate"
    }
    assert set(univariate.__all__) - own == set(weibull.__all__)
    assert own == {
        "DWFit", "DWChisqFit", "dw_fit_ml", "dw_fit_minchisq",
        "ChiSquareReport", "chisq_upper_tail", "chisq_dw",
    }


# the DW fit check's names, which live beside the DW fits
_DW_CHECK = ["ChiSquareReport", "chisq_upper_tail", "chisq_dw", "POOL_THRESHOLD", "_pool",
             "_axis", "_report"]


@pytest.mark.parametrize("name", _DW_CHECK)
def test_fit_check_module_reexports_the_dw_check(name):
    # the joint check's module still resolves each moved name, as the same object
    from bdw import gof, univariate

    assert getattr(gof, name) is getattr(univariate, name)


@pytest.mark.parametrize(
    "step, loaded",
    [
        ("import bdw.cli", ["bdw.cli", "bdw.weibull"]),
        ("import bdw.datasets", ["bdw.datasets", "bdw.weibull"]),
        ("import bdw; bdw.chisq_dw", ["bdw.univariate", "bdw.weibull"]),
    ],
    ids=["cli", "datasets", "chisq_dw"],
)
def test_dw_layers_load_no_joint_law(step, loaded):
    # a bare start of the command line, the data layer and the DW fit
    # check each load the DW layers alone, and no bdw.bivariate
    script = f"import sys\n{step}\nprint(*sorted(m for m in sys.modules if m.startswith('bdw.')))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded


def test_dw_law_pickle_naming_the_fits_module_loads():
    # records pickled before the DW law had its own layer name bdw.univariate
    import pickle

    from bdw import weibull

    for law in (weibull.DWParams(1.5, 0.6), weibull.WeibullParams(0.8, 0.3)):
        old = pickle.dumps(law, protocol=0).replace(b"bdw.weibull\n", b"bdw.univariate\n")
        assert b"bdw.univariate\n" in old and pickle.loads(old) == law


def test_joint_law_loads_no_dw_fits():
    # the joint law rests on the DW law alone: its module, and the package
    # names it serves, load no fitting code
    script = """
import sys
import bdw, bdw.bivariate, bdw.datasets
bdw.moments(bdw.MOBWParams(1.5, 0.1, 0.3, 0.2)), bdw.dw_pmf(bdw.DWParams(1.5, 0.6), 2)
print(*sorted(m for m in sys.modules if (m + ".").startswith("bdw.")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["bdw", "bdw.bivariate", "bdw.datasets", "bdw.weibull"]


def test_latent_sample_helpers_resolve_in_the_ml_layer():
    # they live in the latent layer; the ML-fit layer resolves their names
    from bdw import fit_ml, mobw

    assert fit_ml.impute_dataset is mobw.impute_dataset
    assert fit_ml.inner_em_mobw is mobw.inner_em_mobw
    with pytest.raises(AttributeError, match="^module 'bdw.fit_ml' has no attribute 'summarize'$"):
        fit_ml.summarize


# the package's layers, lowest first: a module imports only the layers
# below its own
LAYERS = [
    {"weibull"},
    {"univariate", "bivariate"},
    {"datasets", "properties", "sampling"},
    {"generator", "gof", "mobw", "fit_ml"},
    {"fit_bayes"},
    {"fit_commands"},
    {"cli"},
]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _bdw_imports(nodes, function=None, typing=False):
    """``(module, enclosing function, under TYPE_CHECKING)`` of every
    import of a ``bdw`` submodule among ``nodes``, at any depth."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if node.level:
                # from . import a, b / from .a import x
                targets = [a.name for a in node.names] if node.module is None else [node.module]
            else:
                targets = [node.module[4:]] if (node.module or "").startswith("bdw.") else []
        elif isinstance(node, ast.Import):
            targets = [a.name[4:] for a in node.names if a.name.startswith("bdw.")]
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _bdw_imports(node.body, function, True)
            yield from _bdw_imports(node.orelse, function, typing)
            continue
        else:
            inner = function
            if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = node.name
            yield from _bdw_imports(ast.iter_child_nodes(node), inner, typing)
            continue
        for target in targets:
            yield target.split(".")[0], function, typing


def test_each_module_imports_only_the_layers_below_it():
    src = pathlib.Path(bdw.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert {p.stem for p in paths} == {*RANK, "__init__"}
    wrong = []
    for path in paths:
        module = path.stem
        for target, function, typing in _bdw_imports(ast.parse(path.read_text()).body):
            if typing or (module, function) == ("fit_ml", "__getattr__"):
                continue  # a type name, or the ML layer's name shim
            # the command line and the data commands' handlers import a layer
            # where they run it: a command handler, or one of the command
            # line's two readers of data (the data layer)
            lazy = function is not None and (
                function.startswith("_cmd_") or function in ("load_csv", "_dataset")
            )
            if function is not None and not (module in ("cli", "fit_commands") and lazy):
                wrong.append(f"{module}.{function} imports {target} when called")
            elif RANK[target] >= RANK[module]:
                wrong.append(f"{module} imports {target}")
    assert wrong == []


def test_dir_lists_the_public_api():
    listed = dir(bdw)
    assert "__all__" in listed
    assert set(bdw.__all__) <= set(listed)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="^module 'bdw' has no attribute 'nested_EM'$"):
        bdw.nested_EM


# Run in a fresh interpreter, since this test process has loaded every
# submodule: prints the bdw modules loaded after a bare ``import bdw``,
# after reading one public name, and after ``from bdw import *``, with the
# names the star import bound and the submodules reachable as attributes.
_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if (m + ".").startswith("bdw."))
import bdw
steps = [loaded()]
bdw.moments
steps.append(loaded())
ns = {}
exec("from bdw import *", ns)
steps.append(loaded())
print(json.dumps({
    "steps": steps,
    "star": sorted(n for n in ns if n != "__builtins__"),
    "same": all(ns[n] is getattr(bdw, n) for n in bdw.__all__),
    "submodules": [getattr(bdw, m).__name__ for m in sys.argv[1:]],
}))
"""


def test_names_resolve_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *SUBMODULES], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    bare, one, star = out["steps"]
    assert bare == ["bdw"]
    assert one == ["bdw", "bdw.bivariate", "bdw.weibull"]
    assert set(star) == {"bdw", *(f"bdw.{m}" for m in SUBMODULES if m not in _NO_EXPORTS)}
    assert out["star"] == sorted(bdw.__all__)
    assert out["same"]
    assert out["submodules"] == [f"bdw.{m}" for m in SUBMODULES]


def test_conversions_between_bases_and_rates_live_with_the_law():
    # both directions are the joint law's; the paper's property results,
    # which no command loads, hold neither
    from bdw import bivariate, properties

    assert bdw.from_mobw is bivariate.from_mobw and bdw.to_mobw is bivariate.to_mobw
    assert not hasattr(properties, "from_mobw")


def _shown(value, digits: str) -> bool:
    # value printed to as many decimals as the shown digits carry
    return f"{value:.{len(digits.partition('.')[2])}f}" == digits


def test_readme_quick_start_shows_what_the_code_gives():
    # the first two python blocks of README.md, run line by line: a number
    # that a comment shows is the line's value (or its field ``name=``),
    # to its printed digits
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)[:2]
    namespace, checked = {}, []
    for line in "".join(blocks).splitlines():
        code, _, comment = line.partition("#")
        statement = ast.parse(code.strip()).body
        if statement and isinstance(statement[0], ast.Expr):
            value = eval(code.strip(), namespace)
        else:
            exec(code.strip(), namespace)
            if statement and isinstance(statement[0], ast.Assign):
                value = namespace[statement[0].targets[0].id]
        for name, digits in re.findall(r"(\w+)=(-?\d+\.\d+)", comment):
            assert _shown(getattr(value, name), digits), line
            checked.append(digits)
        bare = re.fullmatch(r"\s*(-?\d+\.\d+)\s*", comment)
        if bare:
            assert _shown(value, bare[1]), line
            checked.append(bare[1])
    assert checked == ["0.066827", "0.1601", "2.1528", "0.0717", "-65.2196"]
