import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    """Each LAYERS entry of the benchmark tracer names a callable in its
    fusionkit module's (or class's) own namespace, where the tracer looks it
    up; a rename otherwise shows only when a traced benchmark run stops."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, home, path, kind in tracer.LAYERS:
        owner = importlib.import_module(f"fusionkit.{home}")
        *cls_name, attr = path.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0])
        assert callable(vars(owner).get(attr)), layer
        assert kind in ("span", "count", "gen"), layer


def test_import_leaves_every_module_cache_empty():
    """In a fresh interpreter, import fusionkit stores nothing in any
    module-level dict whose name contains CACHE: the benchmark child reports
    those caches at process start, and a run that finds one filled is not
    correct, since its first jobs would not start cold."""
    code = (
        "import json, sys, fusionkit\n"
        "print(json.dumps({f'{name}.{attr}': len(value) for name, module in sorted(sys.modules.items())"
        " if name.startswith('fusionkit.') for attr, value in vars(module).items()"
        " if 'CACHE' in attr and isinstance(value, dict)}))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    caches = json.loads(out.stdout)
    assert "fusionkit.groups._AXIOM_CACHE" in caches and "fusionkit.rules._COMPILED_CACHE" in caches
    assert not any(caches.values()), caches
