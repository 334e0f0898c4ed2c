"""The package namespace: public names resolve, on first use, to their submodules' objects."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import bdw

SUBMODULES = ["bivariate", "cli", "datasets", "fit_bayes", "fit_ml", "gof", "mobw", "univariate"]


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
    src = str(pathlib.Path(bdw.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *SUBMODULES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    bare, one, star = out["steps"]
    assert bare == ["bdw"]
    assert one == ["bdw", "bdw.bivariate", "bdw.univariate"]
    assert set(star) == {"bdw", *(f"bdw.{m}" for m in SUBMODULES if m != "cli")}
    assert out["star"] == sorted(bdw.__all__)
    assert out["same"]
    assert out["submodules"] == [f"bdw.{m}" for m in SUBMODULES]
