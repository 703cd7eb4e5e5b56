from __future__ import annotations

import io
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
from cropdet.synthetic import fidelity_scene
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
