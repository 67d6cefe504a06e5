"""``AnnotationGateway``: an :class:`~repro.serving.queue.EngineWorker`
over a :class:`~repro.serving.registry.ModelRegistry`'s engine.

Kept for the benchmark ladder, which times a submit through it against
one straight to a worker; nothing in the package constructs it.
"""

from __future__ import annotations

from typing import Optional

from .queue import EngineWorker, QueueConfig
from .registry import ModelRegistry


class AnnotationGateway(EngineWorker):
    """The worker over ``registry``'s engine; closing it closes the
    registry too."""

    def __init__(
        self, registry: ModelRegistry, queue_config: Optional[QueueConfig] = None
    ) -> None:
        super().__init__(registry.acquire()[1], queue_config)
        self.registry = registry

    def close(self) -> None:
        super().close()
        self.registry.close()
