"""Disk-backed block storage for the Map-Reduce engine.

The paper runs PGPBA/PGSK on a 110-node Spark cluster because edge
multisets outgrow one machine's RAM; this package is the local engine's
answer: a :class:`BlockStore` that owns every materialized partition
behind a stable :class:`BlockId`, keeps resident bytes under a
configurable memory budget by LRU-spilling serialized blocks to a spill
directory, transparently reloads them on access, and provides durable
checkpoint files that truncate lineage for fault recovery.  Block files
are RBLK ``.blk`` containers (``codecs.py``) of uncompressed chunks,
memory-mapped on read-back.  See DESIGN.md §8 for the block
lifecycle and budget semantics and §10 for the container.
"""

from repro.engine.storage.blocks import (
    BlockId,
    BlockStore,
    BlockWriter,
    ChunkedBlockWriter,
    SpilledBlockHandle,
    StorageLevel,
    StorageStats,
    load_block_file,
    write_block_file,
)
from repro.engine.storage.codecs import (
    BlockCodec,
    WriteInfo,
    read_block_file,
    read_named_file,
)

__all__ = [
    "BlockCodec",
    "BlockId",
    "BlockStore",
    "BlockWriter",
    "ChunkedBlockWriter",
    "SpilledBlockHandle",
    "StorageLevel",
    "StorageStats",
    "WriteInfo",
    "load_block_file",
    "read_block_file",
    "read_named_file",
    "write_block_file",
]
