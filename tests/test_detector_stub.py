from __future__ import annotations

import io
import select
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cropdet.datasets_eval import AnnotationSet, GroundTruth
from cropdet.detections import Detection
from cropdet.detector_stub import (
    DetectorError,
    ExternalProcessDetector,
    LineProtocolClient,
    OracleConfig,
    OracleDetector,
    ProtocolError,
    _noise_values,
    format_request,
    format_response,
    oracle_detect,
    parse_box_line,
    parse_request,
    parse_response_header,
    serve_requests,
)
from cropdet.geometry import BoundingBox, FrameDims
from cropdet.pipeline import FrameProcessingError, PipelineConfig, run_replay
from cropdet.synthetic import fidelity_scene, low_resolution_scene
from naive_reference import naive_oracle_detect

CLEAN = OracleConfig(rng_seed=0, jitter_fraction=0.0)
FRAME_REGION = BoundingBox(0.0, 0.0, 1920.0, 1080.0)


def gt(x, y, w, h, object_id=1):
    return GroundTruth(BoundingBox(x, y, x + w, y + h), object_id=object_id)


# ---------------------------------------------------------------- oracle


def test_oracle_reports_objects_in_region():
    dets = oracle_detect([gt(100.0, 100.0, 20.0, 50.0)], FRAME_REGION, 1920, 1080, CLEAN, 0)
    assert len(dets) == 1
    assert dets[0].box == BoundingBox(100.0, 100.0, 120.0, 150.0)
    assert dets[0].confidence == CLEAN.base_confidence


def test_oracle_region_membership_is_half_area():
    region = BoundingBox(0.0, 0.0, 100.0, 100.0)
    # exactly half inside: reported
    half_in = gt(90.0, 0.0, 20.0, 40.0)
    assert len(oracle_detect([half_in], region, 100, 100, CLEAN, 0)) == 1
    # under half inside: not reported
    mostly_out = gt(92.0, 0.0, 20.0, 40.0)
    assert oracle_detect([mostly_out], region, 100, 100, CLEAN, 0) == []


def test_oracle_straddling_box_keeps_full_extent():
    region = BoundingBox(0.0, 0.0, 100.0, 100.0)
    straddler = gt(90.0, 10.0, 18.0, 40.0)
    dets = oracle_detect([straddler], region, 100, 100, CLEAN, 0)
    assert dets[0].box == BoundingBox(90.0, 10.0, 108.0, 50.0)


def test_oracle_visibility_floor():
    # at the 416x416 input, a 1080p frame shrinks heights by 1080/416;
    # 31.2 px lands just under the 12 px floor and 31.3 px just over
    config = OracleConfig(rng_seed=0, jitter_fraction=0.0, min_visible_height=12.0)
    short = gt(500.0, 500.0, 20.0, 31.1)
    tall = gt(500.0, 500.0, 20.0, 31.3)
    assert oracle_detect([short], FRAME_REGION, 416, 416, config, 0) == []
    assert len(oracle_detect([tall], FRAME_REGION, 416, 416, config, 0)) == 1
    # both are visible at native scale
    assert len(oracle_detect([short, tall], FRAME_REGION, 1920, 1080, config, 0)) == 2


def test_oracle_skips_zero_area_boxes():
    assert oracle_detect([gt(10.0, 10.0, 0.0, 40.0)], FRAME_REGION, 1920, 1080, CLEAN, 0) == []


def test_oracle_local_coordinates():
    region = BoundingBox(100.0, 50.0, 500.0, 250.0)  # 400x200 resized to 200x100
    dets = oracle_detect([gt(200.0, 100.0, 40.0, 100.0)], region, 200, 100, CLEAN, 0)
    assert dets[0].box == BoundingBox(50.0, 25.0, 70.0, 75.0)


def test_oracle_jitter_is_bounded_and_deterministic():
    config = OracleConfig(rng_seed=9, jitter_fraction=0.05)
    truth = gt(500.0, 500.0, 30.0, 60.0)
    first = oracle_detect([truth], FRAME_REGION, 1920, 1080, config, 3)
    second = oracle_detect([truth], FRAME_REGION, 1920, 1080, config, 3)
    assert first == second
    clean = oracle_detect([truth], FRAME_REGION, 1920, 1080, CLEAN, 3)[0].box
    jittered = first[0].box
    assert jittered != clean
    # downscale is 1 here, so each edge moves at most 5% of the box extent
    assert abs(jittered.x_min - clean.x_min) <= 0.05 * clean.width
    assert abs(jittered.x_max - clean.x_max) <= 0.05 * clean.width
    assert abs(jittered.y_min - clean.y_min) <= 0.05 * clean.height
    assert abs(jittered.y_max - clean.y_max) <= 0.05 * clean.height


def test_oracle_jitter_grows_with_downscale():
    config = OracleConfig(rng_seed=9, jitter_fraction=0.05)
    truth = gt(500.0, 500.0, 30.0, 60.0)
    native = oracle_detect([truth], FRAME_REGION, 1920, 1080, config, 3)[0].box
    # same frame through a 2x downscale: offsets double in frame terms
    downscaled = oracle_detect([truth], FRAME_REGION, 960, 540, config, 3)[0].box
    native_offset = native.x_min - truth.box.x_min
    down_offset = 2.0 * downscaled.x_min - truth.box.x_min  # map back to frame
    assert down_offset == pytest.approx(2.0 * native_offset)


def test_oracle_jitter_varies_by_frame():
    config = OracleConfig(rng_seed=9, jitter_fraction=0.05)
    truth = gt(500.0, 500.0, 30.0, 60.0)
    a = oracle_detect([truth], FRAME_REGION, 1920, 1080, config, 0)[0].box
    b = oracle_detect([truth], FRAME_REGION, 1920, 1080, config, 1)[0].box
    assert a != b


def test_oracle_flicker():
    always = OracleConfig(rng_seed=1, jitter_fraction=0.0, flicker_prob=1.0)
    never = OracleConfig(rng_seed=1, jitter_fraction=0.0, flicker_prob=0.0)
    truth = gt(500.0, 500.0, 30.0, 60.0)
    assert oracle_detect([truth], FRAME_REGION, 1920, 1080, always, 0)[0].confidence == 0.05
    assert oracle_detect([truth], FRAME_REGION, 1920, 1080, never, 0)[0].confidence == 0.85


def test_flicker_rate_is_roughly_the_configured_probability():
    config = OracleConfig(rng_seed=5, jitter_fraction=0.0, flicker_prob=0.3)
    truth = gt(500.0, 500.0, 30.0, 60.0)
    flickered = sum(
        oracle_detect([truth], FRAME_REGION, 1920, 1080, config, frame)[0].confidence == 0.05
        for frame in range(500)
    )
    assert 100 <= flickered <= 200


def test_noise_values_are_stable_and_stream_separated():
    assert _noise_values(7, 3, 11, "jitter", 4) == _noise_values(7, 3, 11, "jitter", 4)
    assert _noise_values(7, 3, 11, "jitter", 1) != _noise_values(7, 3, 11, "flicker", 1)
    assert _noise_values(7, 3, 11, "jitter", 1) != _noise_values(8, 3, 11, "jitter", 1)
    values = _noise_values(7, 3, 11, "jitter", 4)
    assert all(0.0 <= v < 1.0 for v in values)


def test_oracle_detector_out_of_range_frame():
    scene = fidelity_scene(5)
    detector = OracleDetector(scene, CLEAN)
    assert detector.detect(99, FRAME_REGION, 416, 416) == []
    assert detector.detect(-1, FRAME_REGION, 416, 416) == []
    assert len(detector.detect(0, FRAME_REGION, 1920, 1080)) == 11


# -------------------------------------------------------------- protocol


def test_request_format_round_trip():
    line = format_request(3, BoundingBox(0.0, 0.0, 100.0, 50.0), 224, 128)
    assert line == "DETECT 3 0.0 0.0 100.0 50.0 224 128"
    frame_id, region, w, h = parse_request(line)
    assert frame_id == 3
    assert region == BoundingBox(0.0, 0.0, 100.0, 50.0)
    assert (w, h) == (224.0, 128.0)


def test_parse_request_rejects_garbage():
    for bad in (
        "DETECT 3 0 0 100",  # too few fields
        "FETCH 3 0 0 100 50 224 128",  # wrong verb
        "DETECT x 0 0 100 50 224 128",  # non-numeric frame
        "DETECT -1 0 0 100 50 224 128",  # negative frame
        "DETECT 3 0 0 100 50 0 128",  # zero input size
        "DETECT 3 100 0 0 50 224 128",  # inverted region
    ):
        with pytest.raises(ProtocolError):
            parse_request(bad)


def test_response_format():
    dets = [
        Detection(BoundingBox(10.0, 20.0, 30.0, 40.0), 0.9),
        Detection(BoundingBox(0.0, 0.0, 5.5, 5.5), 0.25),
    ]
    assert format_response(dets) == "BOXES 2\n10.0 20.0 30.0 40.0 0.9\n0.0 0.0 5.5 5.5 0.25"
    assert format_response([]) == "BOXES 0"


def test_parse_response_header():
    assert parse_response_header("BOXES 4") == 4
    assert parse_response_header("BOXES 0") == 0
    for bad in ("BOXES", "BOXES x", "BOXES -1", "FRAME 2", "BOXES 1 2"):
        with pytest.raises(ProtocolError):
            parse_response_header(bad)


def test_parse_box_line():
    det = parse_box_line("10.0 20.0 30.0 40.0 0.9")
    assert det == Detection(BoundingBox(10.0, 20.0, 30.0, 40.0), 0.9)
    for bad in (
        "10.0 20.0 30.0 40.0",
        "10.0 20.0 30.0 40.0 0.9 7",
        "a b c d e",
        "30.0 20.0 10.0 40.0 0.9",
        "10.0 20.0 30.0 40.0 1.5",
        "nan 20.0 30.0 40.0 0.9",
        "inf 20.0 30.0 40.0 0.9",
    ):
        with pytest.raises(ProtocolError):
            parse_box_line(bad)


GOLDEN_EXPECTATIONS = {
    "ok_empty.txt": [],
    "ok_two.txt": [
        Detection(BoundingBox(10.0, 20.0, 30.0, 40.0), 0.9),
        Detection(BoundingBox(0.0, 0.0, 5.5, 5.5), 0.25),
    ],
    "truncated.txt": ProtocolError,
    "malformed_header.txt": ProtocolError,
    "bad_count.txt": ProtocolError,
    "negative_count.txt": ProtocolError,
    "short_line.txt": ProtocolError,
    "non_numeric.txt": ProtocolError,
    "bad_confidence.txt": ProtocolError,
    "inverted_box.txt": ProtocolError,
    "nan_coordinate.txt": ProtocolError,
    "eof.txt": ProtocolError,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPECTATIONS))
def test_client_against_golden_responses(name, protocol_dir):
    payload = (protocol_dir / name).read_bytes()
    writer = io.BytesIO()
    client = LineProtocolClient(writer, io.BytesIO(payload))
    expected = GOLDEN_EXPECTATIONS[name]
    if expected is ProtocolError:
        with pytest.raises(ProtocolError):
            client.request(0, BoundingBox(0.0, 0.0, 100.0, 100.0), 100, 100)
    else:
        got = client.request(0, BoundingBox(0.0, 0.0, 100.0, 100.0), 100, 100)
        assert got == expected
    assert writer.getvalue() == b"DETECT 0 0.0 0.0 100.0 100.0 100 100\n"


def test_serve_requests_round_trip():
    requests = io.StringIO(
        "DETECT 0 0.0 0.0 100.0 100.0 100 100\nDETECT 1 0.0 0.0 100.0 100.0 100 100\n"
    )
    output = io.StringIO()

    def handler(frame_id, region, w, h):
        if frame_id == 0:
            return [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5)]
        return []

    serve_requests(handler, requests, output)
    assert output.getvalue() == "BOXES 1\n1.0 2.0 3.0 4.0 0.5\nBOXES 0\n"


# ------------------------------------------------- external process


def test_external_detector_empty_responses(responder_cmd):
    with ExternalProcessDetector(responder_cmd("empty"), timeout=10.0) as detector:
        assert detector.detect(0, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100) == []
        assert detector.detect(1, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100) == []


def test_external_detector_matches_in_process_oracle(responder_cmd, scene_json):
    scene = fidelity_scene(5)
    path = scene_json(scene)
    local = OracleDetector(scene, OracleConfig(rng_seed=4, jitter_fraction=0.05))
    region = BoundingBox(300.0, 300.0, 600.0, 520.0)
    with ExternalProcessDetector(responder_cmd("oracle", str(path), "4", "0.05"), timeout=30.0) as remote:
        for frame in range(3):
            assert remote.detect(frame, region, 224, 128) == local.detect(frame, region, 224, 128)


@pytest.mark.parametrize("name", ["truncated.txt", "malformed_header.txt", "eof.txt"])
def test_external_detector_bad_responses(responder_cmd, protocol_dir, name):
    with ExternalProcessDetector(responder_cmd("file", str(protocol_dir / name)), timeout=10.0) as detector:
        with pytest.raises(ProtocolError):
            detector.detect(0, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100)


def test_external_detector_timeout(responder_cmd):
    with ExternalProcessDetector(responder_cmd("silent", "30"), timeout=0.3) as detector:
        with pytest.raises(DetectorError):
            detector.detect(0, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100)


def test_external_detector_discards_late_reply(responder_cmd):
    region = BoundingBox(0.0, 0.0, 50.0, 50.0)
    with ExternalProcessDetector(responder_cmd("late", "1.0"), timeout=0.3) as detector:
        with pytest.raises(DetectorError):
            detector.detect(0, region, 100, 100)
        time.sleep(1.0)
        # the first request's reply has arrived by now; it must not answer
        # this one, and the error names the timeout, not the kill
        with pytest.raises(DetectorError, match="timed out"):
            detector.detect(1, region, 100, 100)


def test_external_detector_dead_process(responder_cmd):
    detector = ExternalProcessDetector(responder_cmd("empty"), timeout=10.0)
    detector.close()
    with pytest.raises(DetectorError):
        detector.detect(0, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(flicker_prob=1.5)
    with pytest.raises(ValueError):
        OracleConfig(jitter_fraction=-0.1)
    with pytest.raises(ValueError):
        OracleConfig(base_confidence=2.0)


def test_external_detector_closes_child_stdout(responder_cmd, protocol_dir):
    detector = ExternalProcessDetector(responder_cmd("empty"), timeout=10.0)
    detector.close()
    assert detector._proc.stdout.closed

    # a failed request kills the child; its stdout is closed at once
    broken = ExternalProcessDetector(responder_cmd("file", str(protocol_dir / "eof.txt")), timeout=10.0)
    with pytest.raises(ProtocolError):
        broken.detect(0, BoundingBox(0.0, 0.0, 50.0, 50.0), 100, 100)
    assert broken._proc.stdout.closed
    broken.close()


@st.composite
def oracle_calls(draw):
    """A few frames of objects on a lattice and detector calls across them.

    Objects include zero-area, ignored and non-pedestrian ones; regions
    share borders with objects, may cover the whole frame, and the calls
    revisit frames in any order, outside the sequence too.
    """
    coord = st.integers(0, 12).map(lambda k: 40.0 * k)
    size = st.sampled_from((0.0, 20.0, 40.0, 80.0))
    objects = st.builds(
        lambda x, y, w, h, object_id, category, ignore: GroundTruth(
            BoundingBox(x, y, x + w, y + h), object_id, category, ignore),
        coord, coord, size, size, st.integers(0, 9), st.sampled_from((1, 1, 1, -1)),
        st.sampled_from((False, False, True)),
    )
    n_frames = draw(st.integers(1, 3))
    frames = tuple(tuple(draw(st.lists(objects, max_size=12))) for _ in range(n_frames))
    region = st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), coord, coord,
                       st.sampled_from((40.0, 120.0, 480.0)), st.sampled_from((40.0, 120.0)))
    region |= st.just(FRAME_REGION)
    calls = draw(st.lists(st.tuples(st.integers(-1, n_frames), region,
                                    st.sampled_from((160, 224, 416))), min_size=1, max_size=6))
    return AnnotationSet(FrameDims(1920, 1080), frames), calls


@settings(max_examples=25, deadline=None)
@given(oracle_calls())
# a second frame after the first: the cached grid must follow the frame
@example((AnnotationSet(FrameDims(1920, 1080), ((gt(0.0, 0.0, 40.0, 80.0),),
                                                (gt(400.0, 0.0, 40.0, 80.0, object_id=2),))),
          [(0, FRAME_REGION, 416), (1, FRAME_REGION, 416)]))
def test_oracle_detector_matches_naive_scan(case):
    annotations, calls = case
    config = OracleConfig(rng_seed=3, min_visible_height=8.0, flicker_prob=0.5)
    detector = OracleDetector(annotations, config)
    for frame, region, size in calls:
        got = detector.detect(frame, region, size, size * 0.6)
        assert got == naive_oracle_detect(annotations, config, frame, region, size, size * 0.6)


# ------------------------------------------------------- sent-ahead requests


def test_client_keeps_unanswered_requests_within_the_window():
    """Each write holds whole requests and never takes the unanswered
    bytes past the window; answers are read in order."""

    class Writes(io.BytesIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, data):
            self.sizes.append(len(data))
            return super().write(data)

    # 1,200-digit frame ids: three requests fit in the PIPE_BUF window, four do not
    requests = [(10**1200, BoundingBox(0.0, 0.0, 10.0 + k, 10.0), 100, 100) for k in range(12)]
    lines = [format_request(*r).encode() + b"\n" for r in requests]
    size = len(lines[0])
    assert all(len(line) == size for line in lines)
    assert 3 * size <= select.PIPE_BUF < 4 * size
    answers = b"".join(f"BOXES 1\n0.0 0.0 1.0 1.0 {k / 100!r}\n".encode() for k in range(12))
    writer = Writes()
    client = LineProtocolClient(writer, io.BytesIO(answers))
    client.send_ahead(requests)
    assert writer.sizes == [3 * size]
    for k, request in enumerate(requests):
        assert client.request(*request) == [Detection(BoundingBox(0.0, 0.0, 1.0, 1.0), k / 100)]
        assert len(writer.getvalue()) - (k + 1) * size <= select.PIPE_BUF
    # one request is written each time an answer makes room for it
    assert writer.sizes == [3 * size] + [size] * 9
    assert writer.getvalue() == b"".join(lines)


def test_failed_send_is_raised_by_the_request_it_affected():
    """send_ahead keeps a failed write to itself; the answers already
    owed are still read, and the first unsent request raises it."""

    class BreaksAfterFirstWrite(io.BytesIO):
        def write(self, data):
            if self.tell():
                raise BrokenPipeError("pipe closed")
            return super().write(data)

    # 2,100-digit frame ids: one request at a time fits in the PIPE_BUF window
    requests = [(10**2100, BoundingBox(0.0, 0.0, 10.0 + k, 10.0), 100, 100) for k in range(3)]
    size = len(format_request(*requests[0])) + 1
    assert size <= select.PIPE_BUF < 2 * size
    client = LineProtocolClient(BreaksAfterFirstWrite(), io.BytesIO(b"BOXES 0\n"))
    client.send_ahead(requests)
    assert client.request(*requests[0]) == []  # its answer's read tries the failing write
    with pytest.raises(DetectorError, match="failed to send request") as info:
        client.request(*requests[1])
    assert isinstance(info.value.__cause__, BrokenPipeError)


def test_sent_ahead_requests_get_sequential_answers(responder_cmd, scene_json):
    scene = fidelity_scene(6)
    path = scene_json(scene)
    config = OracleConfig(rng_seed=4, jitter_fraction=0.05)
    local = OracleDetector(scene, config)
    regions = [BoundingBox(300.0, 300.0, 600.0, 520.0), FRAME_REGION,
               BoundingBox(0.0, 0.0, 960.0, 540.0), BoundingBox(1000.0, 400.0, 1400.0, 700.0)]
    sizes = [(224, 128), (416, 416), (160, 96), (224, 128)]
    cmd = responder_cmd("oracle", str(path), "4", "0.05")
    with ExternalProcessDetector(cmd, timeout=30.0) as remote:
        for frame in range(7):  # frame 6 lies past the scene: no boxes
            calls = [(r, w, h, "tag") for r, (w, h) in zip(regions[frame % 2:], sizes)]
            if frame != 3:  # frame 3 is asked one request at a time
                remote.send_ahead(frame, calls)
            for region, w, h, _ in calls:
                assert remote.detect(frame, region, w, h) == local.detect(frame, region, w, h)


def test_out_of_order_detect_kills_the_child(responder_cmd):
    first = BoundingBox(0.0, 0.0, 50.0, 50.0)
    second = BoundingBox(10.0, 0.0, 50.0, 50.0)
    detector = ExternalProcessDetector(responder_cmd("empty"), timeout=10.0)
    detector.send_ahead(0, [(first, 100, 100), (second, 100, 100)])
    with pytest.raises(ProtocolError, match="out of order"):
        detector.detect(0, second, 100, 100)
    assert detector._proc.stdout.closed
    with pytest.raises(DetectorError, match="stopped after an earlier failure"):
        detector.detect(0, first, 100, 100)
    detector.close()


class RecordingOracle(OracleDetector):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def detect(self, frame_handle, region, input_width, input_height):
        self.calls.append((frame_handle, region))
        return super().detect(frame_handle, region, input_width, input_height)


@pytest.mark.parametrize("position", [1, -1])
def test_child_death_is_blamed_on_the_first_unanswered_call(responder_cmd, scene_json, position):
    """A child that answers N requests and exits: the replay fails on call
    N+1, although the frame's later requests were sent ahead of it."""
    scene = low_resolution_scene(6)
    path = scene_json(scene)
    recorder = RecordingOracle(scene, OracleConfig(rng_seed=0, jitter_fraction=0.05))
    run_replay(recorder, PipelineConfig(), scene.dims, scene.frame_count)
    frames = [frame for frame, _ in recorder.calls]
    busy = next(f for f in frames if frames.count(f) >= 3)  # a frame with send-ahead
    n = frames.index(busy) + (position % frames.count(busy))  # calls answered
    assert 0 < n - frames.index(busy) < frames.count(busy)
    cmd = responder_cmd("die-after", str(n), str(path), "0", "0.05")
    with ExternalProcessDetector(cmd, timeout=10.0) as detector:
        with pytest.raises(FrameProcessingError) as info:
            run_replay(detector, PipelineConfig(), scene.dims, scene.frame_count)
    assert (info.value.frame_index, info.value.region) == recorder.calls[n]
    assert isinstance(info.value.__cause__, DetectorError)


def test_answers_written_before_the_child_exits_are_read(responder_cmd, scene_json):
    scene = fidelity_scene(2)
    path = scene_json(scene)
    local = OracleDetector(scene, CLEAN)
    calls = [(BoundingBox(0.0, 0.0, 960.0 + k, 1080.0), 416, 416) for k in range(3)]
    with ExternalProcessDetector(responder_cmd("die-after", "2", str(path)), timeout=10.0) as detector:
        detector.send_ahead(1, calls)
        assert detector._proc.wait(timeout=10.0) == 3
        for region, w, h in calls[:2]:
            assert detector.detect(1, region, w, h) == local.detect(1, region, w, h)
        with pytest.raises(ProtocolError, match="no response"):
            detector.detect(1, *calls[2])


MANY_CALLS = """
import select, sys
from cropdet.detector_stub import ExternalProcessDetector
from cropdet.geometry import BoundingBox

frame, n_calls, n_boxes = 10**200, int(sys.argv[2]), int(sys.argv[3])
calls = [(BoundingBox(k + 0.123456789, 1.0 / 3.0, k + 100.987654321, 2.0 / 3.0 + k),
          224.0, 128.0) for k in range(n_calls)]
sent = sum(len(f"DETECT {frame} {r.x_min!r} {r.y_min!r} {r.x_max!r} {r.y_max!r} {w!r} {h!r}\\n")
           for r, w, h in calls)
assert sent > 65536, sent
with ExternalProcessDetector(sys.argv[1].split("|"), timeout=20.0) as detector:
    detector.send_ahead(frame, calls)
    peak = detector._client._sent_bytes
    for region, w, h in calls:
        assert len(detector.detect(frame, region, w, h)) == n_boxes
        peak = max(peak, detector._client._sent_bytes)
assert select.PIPE_BUF - 400 < peak <= select.PIPE_BUF, peak
print("ok")
"""


def test_many_sent_ahead_calls_with_long_answers_complete(responder_cmd):
    """300 requests ahead of 500-box answers (about 16 KB each). A
    200-digit frame id makes the requests about 90 KB, more than a pipe's
    default 64 KB: written at once, they would block the parent while the
    child blocks writing answers nobody reads. The run is a child process,
    so a deadlock fails on the timeout instead of hanging the suite."""
    cmd = "|".join(responder_cmd("boxes", "500"))
    done = subprocess.run([sys.executable, "-c", MANY_CALLS, cmd, "300", "500"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
