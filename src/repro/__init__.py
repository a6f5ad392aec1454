"""repro — reproduction of "A Lightweight Transformer Model using
Neural ODE for FPGAs" (Okubo, Sugiura, Kawakami, Matsutani; 2023).

Subpackages
-----------
``repro.tensor``
    from-scratch numpy autograd engine.
``repro.nn``
    neural-network layers incl. the BoTNet-style MHSA2d.
``repro.ode``
    Neural ODE solvers and ODE blocks (the compression mechanism).
``repro.models``
    ResNet50 / BoTNet50 / ODENet / proposed ODE-BoTNet / ViT-Base.
``repro.data``
    SynthSTL synthetic dataset, loaders, the paper's augmentations.
``repro.train``
    SGD + cosine-warm-restarts training stack.
``repro.fixedpoint``
    bit-accurate Q-format arithmetic (ap_fixed semantics).
``repro.runtime``
    batched inference runtime: InferenceSession, the single predict
    API over float/quantized/FPGA execution.
``repro.fpga``
    ZCU104 accelerator simulator: cycles, resources, power, DMA.
``repro.profiling``
    timers and MAC counting (Table VI).
``repro.kernels``
    pluggable kernel backends behind one dispatch seam.
``repro.lint``
    AST project linter + static shape/dtype/Q-format checker
    (``python -m repro.lint``).
``repro.serve``
    production serving layer: replica pool, admission control,
    deadlines/priorities and a deterministic load harness
    (``python -m repro.serve``).
``repro.trace``
    zero-dependency structured tracing: per-request spans across
    serve → session → ODE solver → kernels, Chrome/Perfetto export
    (``python -m repro.serve --trace out.json``).
``repro.experiments``
    one entry point per paper table/figure.

Quick start::

    from repro.models import build_model
    model = build_model("ode_botnet", profile="paper")
    print(model.num_parameters())   # ~0.5M, 97.5% below BoTNet50
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nn",
    "ode",
    "models",
    "data",
    "train",
    "fixedpoint",
    "runtime",
    "fpga",
    "profiling",
    "experiments",
    "kernels",
    "lint",
    "serve",
    "trace",
]
