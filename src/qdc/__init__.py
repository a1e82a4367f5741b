"""Continual dense retrieval with query drift compensation.

Train a small hashed bag-of-tokens encoder over a task sequence, index
each task's corpus once, and keep old indexes searchable by subtracting
the accumulated query embedding drift instead of re-indexing. The root
holds the entry points; every other name lives in its module.
"""
from .config import RunConfig
from .datagen import generate_task_stream
from .pipeline import bench, init_state, old_task_average

__version__ = "0.1.0"
