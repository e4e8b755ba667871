"""Deterministic discrete-event simulator for a home trespasser detection
and alert system: ultrasonic presence sensing with clip recording, a
laser-beam door sensor behind a lossy wireless link, a pulse-sequence
deactivation password, and a mocked email notification pipeline.
"""

__version__ = "0.1.0"

from .airframe import (
    BadDelimiter,
    ChecksumMismatch,
    DeliveryResult,
    Frame,
    FrameDecodeError,
    FrameType,
    LengthMismatch,
    LinkModel,
    UnknownFrameType,
    decode_frame,
    encode_frame,
    transmit,
)
from .config import ConfigError, SimConfig
from .controller import (
    Action,
    Controller,
    RecordingJob,
    SimulationOrderError,
    SystemMode,
    SystemState,
)
from .engine import run
from .events import EventKind, EventQueue, Instant, ScenarioEvent
from .notify import (
    Dispatcher,
    LineFileSink,
    MaildirSink,
    MemorySink,
    Notification,
    NotificationKind,
    Outbox,
    build_notification,
)
from .pulselock import (
    AttemptOutcome,
    AttemptSession,
    AttemptStateError,
    PasswordSpec,
    begin_attempt,
    search_space,
)
from .report import RunReport, render_report
from .scenario import Scenario, ScenarioError, parse_scenario, render_scenario
from .sensors import (
    UltrasonicConfig,
    distance_from_echo,
    echo_from_distance,
    presence_detect,
)
