"""Module/Parameter abstractions, mirroring the familiar torch.nn design."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A trainable tensor: it always requires grad.  ``forward`` trains
    through it; ``infer`` reads its ``.data``."""

    def __init__(self, data, name: str | None = None):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


class Module:
    """Base class for all neural modules.

    Submodules and parameters are discovered by attribute inspection, the
    same convention as torch.nn: assign a :class:`Parameter` or a
    :class:`Module` to ``self.<name>`` and it is registered automatically.
    """

    def __init__(self):
        self.training = True

    # -- discovery ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr == "training":
                continue
            full = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return sum(p.size for p in self.parameters())

    # -- train/eval -----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization ----------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].copy()

    # -- call protocol ----------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """A list of submodules registered for parameter discovery."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        setattr(self, f"m{index}", module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
