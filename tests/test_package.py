"""The package's export list and its numpy-free writer module."""
import pathlib
import subprocess
import sys
import types

import photonsim


def test_export_list_is_every_public_name():
    for name in photonsim.__all__:
        assert hasattr(photonsim, name), name
    public = {name for name, value in vars(photonsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(photonsim.__all__) == sorted(public | {"__version__"})


def test_artifacts_stand_alone_without_numpy(tmp_path):
    # the numpy-free cost model writes through this module
    path = pathlib.Path(photonsim.__file__).parent / "artifacts.py"
    script = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("artifacts", {str(path)!r})
artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifacts)
artifacts.write_json({str(tmp_path / "doc.json")!r}, {{"x": [1 / 3, 2.5e-7], "name": "\\u00e9"}})
assert "numpy" not in sys.modules, "numpy was imported"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "doc.json").read_bytes() == (
        b'{\n  "x": [\n    0.333333333,\n    2.5e-07\n  ],\n  "name": "\\u00e9"\n}\n')
