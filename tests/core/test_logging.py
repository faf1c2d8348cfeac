"""Shared CLI logging: verbosity mapping, run-id tagging, kv rendering."""

import io
import logging

import pytest

from repro.obs.logging import (
    LOGGER_NAME,
    get_logger,
    kv,
    set_run_id,
    setup_cli_logging,
    verbosity_to_level,
)


@pytest.fixture(autouse=True)
def _reset_logging_state():
    yield
    set_run_id(None)
    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        if not isinstance(handler, logging.NullHandler):
            logger.removeHandler(handler)
    logger.addHandler(logging.NullHandler())
    logger.setLevel(logging.NOTSET)


class TestKv:
    def test_fields_render_sorted(self):
        assert kv("run.start", workers=2, executor="thread") == (
            "run.start executor=thread workers=2"
        )

    def test_floats_render_compactly(self):
        assert kv("step.done", wall=0.123456789) == "step.done wall=0.123457"
        assert kv("tick", t=2.0) == "tick t=2"

    def test_no_fields_is_just_the_event(self):
        assert kv("run.end") == "run.end"


class TestVerbosity:
    @pytest.mark.parametrize(
        ("verbosity", "level"),
        [
            (-2, logging.ERROR),
            (-1, logging.ERROR),
            (0, logging.WARNING),
            (1, logging.INFO),
            (2, logging.DEBUG),
            (3, logging.DEBUG),
        ],
    )
    def test_mapping(self, verbosity, level):
        assert verbosity_to_level(verbosity) == level


class TestSetup:
    def test_lines_carry_level_and_run_id(self):
        stream = io.StringIO()
        logger = setup_cli_logging(1, stream=stream)
        logger.info(kv("run.start", workers=2))
        set_run_id("run-123")
        logger.info("tagged")
        set_run_id(None)
        logger.info("untagged")
        lines = stream.getvalue().splitlines()
        assert "INFO [-] repro: run.start workers=2" in lines[0]
        assert "[run-123]" in lines[1]
        assert "[-]" in lines[2]

    def test_reconfiguration_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        setup_cli_logging(1, stream=first)
        logger = setup_cli_logging(1, stream=second)
        assert len(logger.handlers) == 1
        logger.info("only once")
        assert first.getvalue() == ""
        assert second.getvalue().count("only once") == 1

    def test_quiet_suppresses_warnings(self):
        stream = io.StringIO()
        logger = setup_cli_logging(-1, stream=stream)
        logger.warning("should not appear")
        logger.error("should appear")
        assert "should not appear" not in stream.getvalue()
        assert "should appear" in stream.getvalue()

    def test_child_loggers_share_the_configuration(self):
        stream = io.StringIO()
        setup_cli_logging(1, stream=stream)
        get_logger("repro.core.pipeline").info("from a module")
        assert "repro.core.pipeline: from a module" in stream.getvalue()


class TestGetLogger:
    def test_nests_external_names_under_repro(self):
        assert get_logger("somewhere.else").name == "repro.somewhere.else"
        assert get_logger("repro.core.trace").name == "repro.core.trace"
        assert get_logger().name == "repro"

    def test_import_side_effect_registers_null_handler(self):
        # Importing the package must never let records fall through to
        # logging's last-resort stderr handler.
        root = logging.getLogger(LOGGER_NAME)
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)
