"""``Module``/``Parameter`` base classes (torch-like, numpy-backed)."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf of a :class:`Module`."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all layers and models.

    Submodules and parameters are registered automatically on attribute
    assignment.  Provides parameter iteration, train/eval mode, state
    dict (de)serialisation and a callable ``forward`` interface.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = np.asarray(array)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name, array) -> None:
        """Update a registered buffer in place-of-reference."""
        self._buffers[name] = np.asarray(array)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mname, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mname}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for mname, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mname}.")

    def modules(self):
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters.

        This is the quantity reported in Table IV of the paper.
        """
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # modes
    # ------------------------------------------------------------------
    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self):
        state = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[f"buffer:{name}"] = b.copy()
        return state

    def load_state_dict(self, state):
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer:"):
                self._load_buffer(name[len("buffer:"):], value)
            else:
                if name not in params:
                    raise KeyError(f"unexpected parameter {name!r}")
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                # checkpoint restore writes in place so existing views
                # (shared-store mappings, optimizers) observe the loaded weights
                params[name].data[...] = value  # repro-lint: ignore[MUT001]
        return self

    def _load_buffer(self, dotted, value):
        obj = self
        parts = dotted.split(".")
        for part in parts[:-1]:
            obj = obj._modules[part]
        obj._set_buffer(parts[-1], value.copy())

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self):
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"
