"""Detector stand-ins: an annotation-driven oracle and a line-protocol bridge.

The oracle replays ground truth with configurable imperfections (visibility
floor, box jitter, confidence flicker) so pipeline behavior can be tested
without a real model. Noise is derived by hashing (seed, frame, object,
stream), so results are reproducible across runs and platforms and do not
depend on call order.

The line protocol drives an external detector process over stdin/stdout:

    request:   DETECT <frame_id> <x_min> <y_min> <x_max> <y_max> <input_w> <input_h>
    response:  BOXES <n>
               <x_min> <y_min> <x_max> <y_max> <confidence>   (n times)

Requests are answered in order; up to PIPE_BUF bytes of unanswered
requests may be in flight. Coordinates in both directions are in the
resized crop's pixel space.
"""

from __future__ import annotations

import hashlib
import math
import select
import subprocess
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Sequence, TextIO

from .datasets_eval import AnnotationSet, GroundTruth
from .detections import Detection
from .geometry import BoundingBox, BoxGrid, intersection_area, require_finite, to_crop_coords


class DetectorError(Exception):
    """Detector call failed (process died, timeout, transport error)."""


class ProtocolError(DetectorError):
    """The byte stream violated the line protocol."""


@dataclass(frozen=True)
class OracleConfig:
    """Imperfection model for the ground-truth oracle.

    jitter_fraction perturbs each box edge by up to that fraction of the
    box extent, scaled by the region's downscale factor: boxes seen
    through a heavy downscale wobble more, matching how localization
    degrades with input resolution. flicker_prob is the chance an object
    reports degraded_confidence instead of base_confidence on a frame.
    """

    rng_seed: int = 0
    min_visible_height: float = 12.0
    jitter_fraction: float = 0.05
    base_confidence: float = 0.85
    flicker_prob: float = 0.0
    degraded_confidence: float = 0.05

    def __post_init__(self) -> None:
        require_finite(self)
        if self.min_visible_height < 0:
            raise ValueError(f"min_visible_height must be >= 0, got {self.min_visible_height}")
        if self.jitter_fraction < 0:
            raise ValueError(f"jitter_fraction must be >= 0, got {self.jitter_fraction}")
        if not 0.0 <= self.flicker_prob <= 1.0:
            raise ValueError(f"flicker_prob must be in [0, 1], got {self.flicker_prob}")
        for name in ("base_confidence", "degraded_confidence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def _noise_values(seed: int, frame_index: int, object_id: int, stream: str, n: int) -> list[float]:
    """n deterministic uniforms in [0, 1) keyed by (seed, frame, object, stream)."""
    if n > 4:
        raise ValueError("at most 4 values per stream key")
    digest = hashlib.sha256(f"{seed}:{frame_index}:{object_id}:{stream}".encode("ascii")).digest()
    return [int.from_bytes(digest[8 * i : 8 * i + 8], "big") / 2.0**64 for i in range(n)]


def oracle_detect(
    ground_truths: Sequence[GroundTruth],
    region: BoundingBox,
    input_width: float,
    input_height: float,
    config: OracleConfig,
    frame_index: int,
) -> list[Detection]:
    """Simulate one detector call on the given region.

    An object is reported when at least half its area lies inside the
    region and its height, after resizing the region to the input size,
    is at least min_visible_height. Returned boxes are in the resized
    crop's coordinate space and may extend past its edges for objects
    straddling the region border.
    """
    detections: list[Detection] = []
    for gt in ground_truths:
        area = gt.box.area
        if area <= 0.0:
            continue
        if intersection_area(gt.box, region) / area < 0.5:
            continue
        local = to_crop_coords(gt.box, region, input_width, input_height)
        if local.height < config.min_visible_height:
            continue

        box = local
        if config.jitter_fraction > 0.0:
            u = _noise_values(config.rng_seed, frame_index, gt.object_id, "jitter", 4)
            jitter_x = config.jitter_fraction * (region.width / input_width) * local.width
            jitter_y = config.jitter_fraction * (region.height / input_height) * local.height
            x0 = local.x_min + (2.0 * u[0] - 1.0) * jitter_x
            y0 = local.y_min + (2.0 * u[1] - 1.0) * jitter_y
            x1 = local.x_max + (2.0 * u[2] - 1.0) * jitter_x
            y1 = local.y_max + (2.0 * u[3] - 1.0) * jitter_y
            box = BoundingBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

        confidence = config.base_confidence
        if config.flicker_prob > 0.0:
            flick = _noise_values(config.rng_seed, frame_index, gt.object_id, "flicker", 1)[0]
            if flick < config.flicker_prob:
                confidence = config.degraded_confidence

        detections.append(Detection(box=box, confidence=confidence))
    return detections


class OracleDetector:
    """Detector backed by an annotation set; frame handles are frame indices.

    The ground truth of the last frame asked for is kept with a BoxGrid
    over it, so each call scans only the objects near its region: an
    object with no area inside the region is never reported.
    """

    def __init__(self, annotations: AnnotationSet, config: OracleConfig) -> None:
        self.annotations = annotations
        self.config = config
        self._frame = -1
        self._truths: list[GroundTruth] = []
        self._grid = BoxGrid([])

    def detect(
        self, frame_handle: int, region: BoundingBox, input_width: float, input_height: float
    ) -> list[Detection]:
        frame = int(frame_handle)
        if not 0 <= frame < self.annotations.frame_count:
            return []
        if frame != self._frame:
            self._truths = self.annotations.eval_boxes(frame)
            self._grid = BoxGrid([gt.box for gt in self._truths])
            self._frame = frame
        near = [self._truths[i] for i in self._grid.query(region)]
        return oracle_detect(near, region, input_width, input_height, self.config, frame)


def format_request(
    frame_id: int, region: BoundingBox, input_width: float, input_height: float
) -> str:
    return (
        f"DETECT {frame_id} {region.x_min!r} {region.y_min!r} "
        f"{region.x_max!r} {region.y_max!r} {input_width!r} {input_height!r}"
    )


def _encode_request(
    frame_id: int, region: BoundingBox, input_width: float, input_height: float
) -> bytes:
    return (format_request(frame_id, region, input_width, input_height) + "\n").encode("ascii")


def parse_request(line: str) -> tuple[int, BoundingBox, float, float]:
    parts = line.split()
    if len(parts) != 8 or parts[0] != "DETECT":
        raise ProtocolError(f"malformed request line: {line!r}")
    try:
        frame_id = int(parts[1])
        values = [float(p) for p in parts[2:]]
    except ValueError:
        raise ProtocolError(f"non-numeric field in request: {line!r}") from None
    x_min, y_min, x_max, y_max, input_w, input_h = values
    if frame_id < 0:
        raise ProtocolError(f"negative frame id in request: {line!r}")
    if input_w <= 0 or input_h <= 0:
        raise ProtocolError(f"non-positive input size in request: {line!r}")
    try:
        region = BoundingBox(x_min, y_min, x_max, y_max)
    except ValueError as exc:
        raise ProtocolError(f"bad region in request: {line!r} ({exc})") from None
    return frame_id, region, input_w, input_h


def format_response(detections: Sequence[Detection]) -> str:
    lines = [f"BOXES {len(detections)}"]
    for det in detections:
        b = det.box
        lines.append(f"{b.x_min!r} {b.y_min!r} {b.x_max!r} {b.y_max!r} {det.confidence!r}")
    return "\n".join(lines)


def parse_response_header(line: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "BOXES":
        raise ProtocolError(f"malformed response header: {line!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise ProtocolError(f"malformed box count in header: {line!r}") from None
    if count < 0:
        raise ProtocolError(f"negative box count in header: {line!r}")
    return count


def parse_box_line(line: str) -> Detection:
    parts = line.split()
    if len(parts) != 5:
        raise ProtocolError(f"expected 5 fields in box line, got {len(parts)}: {line!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ProtocolError(f"non-numeric field in box line: {line!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ProtocolError(f"non-finite value in box line: {line!r}")
    x_min, y_min, x_max, y_max, confidence = values
    if x_min > x_max or y_min > y_max:
        raise ProtocolError(f"inverted box in response: {line!r}")
    if not 0.0 <= confidence <= 1.0:
        raise ProtocolError(f"confidence out of [0, 1] in response: {line!r}")
    return Detection(BoundingBox(x_min, y_min, x_max, y_max), confidence)


_WINDOW = select.PIPE_BUF
"""Most bytes of written requests whose answers are not yet read: no more
than any pipe's capacity, so a write never waits for the peer to read."""


class LineProtocolClient:
    """Request/response client over binary byte streams, with requests
    sent ahead of their answers.

    Requests are answered in order. send_ahead queues requests; at most
    _WINDOW bytes of requests whose answers have not been read are
    written at a time, in one write each time the window has room.
    request then reads the answer at the head of the queue, which must be
    the request it was given. Since a write never waits for the peer to
    read, a peer blocked writing answers cannot deadlock the client.

    Reads are buffered internally; when a timeout is set and the reader
    exposes a file descriptor, waiting for more bytes goes through
    select, so a silent peer raises instead of hanging forever.
    """

    def __init__(self, writer: BinaryIO, reader: BinaryIO, timeout: float | None = None) -> None:
        self._writer = writer
        self._reader = reader
        self._timeout = timeout
        self._buffer = bytearray()
        self._queue: deque[bytes] = deque()  # unanswered requests, in order
        self._sent = 0  # how many at the head of the queue were written
        self._sent_bytes = 0
        self._send_failure: OSError | ValueError | None = None

    @property
    def awaiting_answer(self) -> bool:
        """Whether a request has been written whose answer is not yet read."""
        return self._sent > 0

    def send_ahead(self, requests: Iterable[tuple[int, BoundingBox, float, float]]) -> None:
        """Queue requests, in the order request will be called for them,
        and write as many as the window holds. A failed write is raised by
        the request call of the first request it affected, not here."""
        for frame_id, region, input_width, input_height in requests:
            self._queue.append(_encode_request(frame_id, region, input_width, input_height))
        self._send()

    def request(
        self, frame_id: int, region: BoundingBox, input_width: float, input_height: float
    ) -> list[Detection]:
        payload = _encode_request(frame_id, region, input_width, input_height)
        if not self._queue:
            self._queue.append(payload)
        if payload != self._queue[0]:
            raise ProtocolError(
                f"request out of order: {payload.decode().strip()!r} "
                f"while {self._queue[0].decode().strip()!r} is next"
            )
        if not self._sent:
            self._send()
            if self._send_failure is not None:
                exc = self._send_failure
                raise DetectorError(f"failed to send request: {exc}") from exc

        header = self._read_line()
        if header is None:
            raise ProtocolError("no response from detector (stream closed)")
        count = parse_response_header(header)
        detections: list[Detection] = []
        for i in range(count):
            line = self._read_line()
            if line is None:
                raise ProtocolError(f"truncated response: expected {count} boxes, got {i}")
            detections.append(parse_box_line(line))
        self._sent -= 1
        self._sent_bytes -= len(self._queue.popleft())
        self._send()
        return detections

    def _send(self) -> None:
        """Write, in one write, the unsent requests that fit in the window
        (at least one when nothing is awaiting an answer). After a failed
        write nothing more is sent; the error is kept for request."""
        if self._send_failure is not None:
            return
        end, size = self._sent, self._sent_bytes
        while end < len(self._queue) and (end == 0 or size + len(self._queue[end]) <= _WINDOW):
            size += len(self._queue[end])
            end += 1
        if end == self._sent:
            return
        try:
            self._writer.write(b"".join(islice(self._queue, self._sent, end)))
            self._writer.flush()
        except (OSError, ValueError) as exc:
            self._send_failure = exc
            return
        self._sent, self._sent_bytes = end, size

    def _read_line(self) -> str | None:
        """Next newline-terminated line, or None on EOF (partial lines included)."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line.decode("ascii", errors="replace")
            chunk = self._read_chunk()
            if not chunk:
                return None
            self._buffer.extend(chunk)

    def _read_chunk(self) -> bytes:
        if self._timeout is not None:
            fd = self._fileno()
            if fd is not None:
                ready, _, _ = select.select([fd], [], [], self._timeout)
                if not ready:
                    raise DetectorError(
                        f"timed out after {self._timeout}s waiting for detector response"
                    )
        read1 = getattr(self._reader, "read1", None)
        try:
            chunk = read1(4096) if read1 is not None else self._reader.read(4096)
        except (OSError, ValueError) as exc:
            raise DetectorError(f"failed to read response: {exc}") from exc
        return chunk or b""

    def _fileno(self) -> int | None:
        fileno = getattr(self._reader, "fileno", None)
        if fileno is None:
            return None
        try:
            return fileno()
        except (OSError, ValueError):
            return None


class ExternalProcessDetector:
    """Runs a detector as a child process speaking the line protocol.

    Requests are answered in order; up to PIPE_BUF bytes of unanswered
    requests may be in flight. send_ahead writes a frame's requests before
    their answers are read; detect must then be called for each of them,
    in the same order. Any DetectorError, an out-of-order detect included,
    kills the child. Concurrent use is not supported.
    """

    def __init__(self, command: Sequence[str], timeout: float | None = 10.0) -> None:
        self._proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._client = LineProtocolClient(self._proc.stdin, self._proc.stdout, timeout=timeout)
        self._kill_reason: str | None = None

    def send_ahead(self, frame_handle: int, calls: Iterable[Sequence]) -> None:
        """Send the requests of calls, each (region, input_width, input_height,
        ...), ahead of their detect calls. A failure is raised by the detect
        call of the first request it affected."""
        if self._kill_reason is None:
            frame_id = int(frame_handle)
            self._client.send_ahead((frame_id, call[0], call[1], call[2]) for call in calls)

    def detect(
        self, frame_handle: int, region: BoundingBox, input_width: float, input_height: float
    ) -> list[Detection]:
        # a child that exited may still have answered the requests already sent
        if self._kill_reason is not None or (
            not self._client.awaiting_answer and self._proc.poll() is not None
        ):
            reason = self._kill_reason or f"exited with code {self._proc.returncode}"
            raise DetectorError(f"detector process {reason}")
        try:
            return self._client.request(int(frame_handle), region, input_width, input_height)
        except DetectorError as exc:
            # after a timeout or a protocol violation the stream is out of
            # step: a late reply would be read as the answer to the next request
            self._kill_reason = f"was stopped after an earlier failure: {exc}"
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
            raise

    def close(self) -> None:
        if self._proc.stdin is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> ExternalProcessDetector:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


DetectHandler = Callable[[int, BoundingBox, float, float], Sequence[Detection]]


def serve_requests(handler: DetectHandler, reader: TextIO, writer: TextIO) -> None:
    """Answer protocol requests from text streams until EOF.

    Intended for responder processes built around OracleDetector or a
    canned handler; errors from the handler propagate.
    """
    for raw in reader:
        line = raw.strip()
        if not line:
            continue
        frame_id, region, input_w, input_h = parse_request(line)
        detections = handler(frame_id, region, input_w, input_h)
        writer.write(format_response(detections) + "\n")
        writer.flush()
