import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
