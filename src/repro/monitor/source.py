"""Chunk sources for the monitor: static pcap, growing pcap, live sim.

Three ways packets reach :class:`repro.monitor.Monitor`, all yielding
the same shape — lists of ``(timestamp, frame_bytes)`` records, at most
``chunk_records`` long, in capture order:

* a **completed pcap** — ``repro.net.ingest.iter_pcap_chunks`` (reused
  directly by the CLI; nothing here);
* a **growing pcap** (:func:`follow_pcap_chunks`) — a ``tail -f``-style
  reader for a file another process is still appending to.
  :class:`~repro.net.pcap.PcapReader` cannot do this: its iterator
  consumes partial trailing bytes and stops.  This reader buffers
  incomplete records itself, polls for growth, flushes a partial chunk
  whenever the file goes quiet (so analyses stay live), and ends after
  ``idle_timeout`` seconds without new bytes;
* the **simulator's live feed** (:func:`simulated_chunks`) — runs the
  MonIoTr testbed in :data:`SIM_STEP_SECONDS` slices of simulated time
  and drains frames through an :class:`~repro.simnet.capture.ApCapture`
  frame tap, with ``keep_bytes=False`` so the capture itself stays
  O(1): the monitor's window is the only thing holding traffic state.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Iterator, List, Tuple

from repro.net.ingest import DEFAULT_CHUNK_RECORDS
from repro.net.pcap import PCAP_MAGIC, PCAP_MAGIC_SWAPPED

#: Seconds of simulated time per slice of :func:`simulated_chunks`.
SIM_STEP_SECONDS = 5.0

_GLOBAL_HEADER_SIZE = 24
_READ_SIZE = 1 << 16

Record = Tuple[float, bytes]


def follow_pcap_chunks(
    path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    poll_interval: float = 0.5,
    idle_timeout: float = 10.0,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[List[Record]]:
    """Tail a (possibly still growing) classic pcap in bounded chunks.

    Yields full ``chunk_records``-sized chunks as soon as they are
    available and flushes a partial chunk whenever the file stops
    growing for one poll, so downstream windows advance while the
    capture is live.  Returns cleanly after ``idle_timeout`` seconds
    without new bytes.  Raises ``ValueError`` on a bad magic number, or
    when the file never grows a complete 24-byte global header within
    the timeout; raises ``FileNotFoundError`` when the file never
    appears within the timeout.

    A truncated trailing record is *not* an error here — it is simply a
    record the writer has not finished appending yet.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    poll_interval = max(poll_interval, 0.0)
    started = clock()
    handle = None
    while handle is None:
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            if clock() - started >= idle_timeout:
                raise
            sleep(poll_interval)
    with handle:
        header = b""
        idle_since = clock()
        while len(header) < _GLOBAL_HEADER_SIZE:
            data = handle.read(_GLOBAL_HEADER_SIZE - len(header))
            if data:
                header += data
                idle_since = clock()
                continue
            if clock() - idle_since >= idle_timeout:
                raise ValueError(f"{path}: not a pcap file (too short)")
            sleep(poll_interval)
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC:
            record = struct.Struct("<IIII")
        elif magic == PCAP_MAGIC_SWAPPED:
            record = struct.Struct(">IIII")
        else:
            raise ValueError(f"{path}: bad pcap magic {magic:#x}")

        pending = b""
        chunk: List[Record] = []
        idle_since = clock()
        while True:
            data = handle.read(_READ_SIZE)
            if data:
                idle_since = clock()
                pending += data
                offset = 0
                while len(pending) - offset >= record.size:
                    ts_sec, ts_usec, incl_len, _orig = record.unpack_from(
                        pending, offset)
                    if len(pending) - offset - record.size < incl_len:
                        break
                    start = offset + record.size
                    chunk.append((ts_sec + ts_usec / 1_000_000,
                                  pending[start:start + incl_len]))
                    offset = start + incl_len
                    if len(chunk) >= chunk_records:
                        yield chunk
                        chunk = []
                if offset:
                    pending = pending[offset:]
                continue
            # No new bytes: flush what we have, then wait or give up.
            if chunk:
                yield chunk
                chunk = []
            if clock() - idle_since >= idle_timeout:
                return
            sleep(poll_interval)


def simulated_chunks(
    seed: int = 7,
    duration: float = 300.0,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[List[Record]]:
    """Stream the simulated lab's frames live, in bounded chunks.

    Builds the MonIoTr testbed, turns off the capture's record
    accumulation, taps every frame the AP observes, and advances
    simulated time in :data:`SIM_STEP_SECONDS` slices — yielding full
    chunks as they fill and the remainder at the end.  Deterministic
    for a given ``(seed, duration, chunk_records)``.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    from repro.devices.behaviors import build_testbed

    testbed = build_testbed(seed=seed)
    capture = testbed.lan.capture
    capture.keep_bytes = False
    buffer: List[Record] = []
    capture.frame_taps.append(
        lambda timestamp, frame: buffer.append((timestamp, frame)))
    simulator = testbed.simulator
    end = simulator.now + duration
    while simulator.now < end:
        testbed.run(min(SIM_STEP_SECONDS, end - simulator.now))
        while len(buffer) >= chunk_records:
            yield buffer[:chunk_records]
            del buffer[:chunk_records]
    if buffer:
        yield buffer
