"""Structured logging setup for the :mod:`repro` package.

Every module logs through a child of the ``repro`` logger
(:func:`get_logger`), so one :func:`configure` call controls the whole
library: level, destination stream, and whether records render as plain
text or as one JSON object per line (for log shippers)::

    from repro.obs import logging as obs_logging

    obs_logging.configure(level="INFO", json_mode=True)
    log = obs_logging.get_logger(__name__)
    log.info("fleet simulated", extra={"fields": {"drives": 4000}})

Structured payloads ride in the ``fields`` extra; the JSON formatter
merges them into the emitted object and the text formatter appends them
as ``key=value`` pairs.
"""

from __future__ import annotations

import json
import logging as _logging
import sys
from typing import Any, TextIO

#: Root logger of the library; every repro logger is a child of it.
ROOT_LOGGER_NAME = "repro"

_TEXT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATE_FORMAT = "%H:%M:%S"


class JsonFormatter(_logging.Formatter):
    """One JSON object per record: ts, level, logger, message, fields."""

    def format(self, record: _logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload["fields"] = fields
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class TextFormatter(_logging.Formatter):
    """Classic text lines, with structured fields as ``key=value``."""

    def __init__(self) -> None:
        super().__init__(_TEXT_FORMAT, datefmt=_DATE_FORMAT)

    def format(self, record: _logging.LogRecord) -> str:
        text = super().format(record)
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict) and fields:
            suffix = " ".join(
                f"{key}={fields[key]}" for key in sorted(fields)
            )
            text = f"{text} [{suffix}]"
        return text


def configure(level: int | str = "WARNING", *, json_mode: bool = False,
              stream: TextIO | None = None) -> _logging.Logger:
    """(Re)configure the library's logging in one call.

    Replaces any handler a previous ``configure`` installed, so repeated
    calls (e.g. one per CLI invocation in a test run) do not stack
    handlers and duplicate output.  Returns the ``repro`` root logger.
    """
    logger = _logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
            handler.close()
    handler = _logging.StreamHandler(stream or sys.stderr)
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    handler.setFormatter(JsonFormatter() if json_mode else TextFormatter())
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


#: The name :mod:`repro.obs` exports :func:`configure` under.
configure_logging = configure


def get_logger(name: str) -> _logging.Logger:
    """Logger namespaced under ``repro`` (pass ``__name__`` normally)."""
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return _logging.getLogger(name)
    return _logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def verbosity_to_level(verbosity: int) -> int:
    """Map counted ``-v`` flags onto logging levels."""
    if verbosity <= 0:
        return _logging.WARNING
    if verbosity == 1:
        return _logging.INFO
    return _logging.DEBUG
