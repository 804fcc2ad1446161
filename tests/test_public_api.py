"""Top-level public API surface."""

from pathlib import Path

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


class TestSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self, rng):
        """The README quickstart, condensed: deploy, train, schedule."""
        import numpy as np

        from repro.ocl.platform import get_all_devices

        ctx = repro.Context(get_all_devices())
        dispatcher = repro.Dispatcher(ctx)
        spec = repro.PAPER_MODELS[0]
        dispatcher.deploy_fresh(spec, rng=0)

        dataset = repro.generate_dataset(
            "throughput", specs=[spec], batches=(1, 64, 4096)
        )
        predictor = repro.DevicePredictor("throughput").fit(dataset)
        scheduler = repro.OnlineScheduler(ctx, dispatcher, [predictor])

        x = rng.standard_normal((64, 4)).astype(np.float32)
        decision, event = scheduler.submit(spec, x, "throughput")
        assert event.meta["scores"].shape == (64, 3)
        assert decision.device in ("cpu", "dgpu", "igpu")

    def test_readme_quickstart_block(self, monkeypatch, capsys):
        """The README's quickstart block runs as written (reduced grid)."""
        from repro.nn.zoo import MNIST_SMALL

        section = README.read_text().split("## Quickstart", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "ServingFrontend" in block and ".submit(" in block

        full = repro.generate_dataset
        monkeypatch.setattr(
            repro,
            "generate_dataset",
            lambda policy: full(
                policy, specs=[MNIST_SMALL], batches=(1, 64, 4096, 65536)
            ),
        )
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)

        response = namespace["response"]
        assert response.served
        assert response.scores.shape == (8192, 10)
        assert response.device in ("cpu", "dgpu", "igpu")
        assert response.gpu_state in ("idle", "warm")
        assert response.device in capsys.readouterr().out
