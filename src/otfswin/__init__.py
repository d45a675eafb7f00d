"""Link-level OTFS simulation with transmit/receive window designs.

The package covers the discrete ideal-pulse OTFS chain end to end: frame
geometry and symbol mapping (:mod:`otfswin.grid`), the DD/TF transforms
(:mod:`otfswin.transforms`), delay-Doppler channel generation and the
effective channel (:mod:`otfswin.channel`), window construction including
the MMSE-optimal transmit window (:mod:`otfswin.windows`), embedded-pilot
channel estimation (:mod:`otfswin.estimation`), MMSE and sum-product
detection (:mod:`otfswin.detection`), and the Monte Carlo experiment harness
with its CLI (:mod:`otfswin.harness`, :mod:`otfswin.cli`).  The dense
vectorized model that checks the FFT fast paths lives in
:mod:`otfswin.oracles`, and the cross-oracle suite behind ``otfswin
selfcheck`` in :mod:`otfswin.selfcheck`; no trial calls either.
"""

from .errors import ConfigurationError, NumericalFailure
from .grid import (
    Constellation,
    FrameGrid,
    map_symbols,
    vectorize,
)
from .transforms import dft_matrix, isfft, sfft
from .channel import (
    ChannelRealization,
    EffectiveDDChannel,
    PathSpec,
    channel_from_text,
    channel_to_text,
    circular_operator,
    delay_power_profile,
    effective_dd_channel,
    largest_taps,
    sample_channel,
    tf_channel,
    tf_gains_from_taps,
    transmit_frame,
)
from .windows import (
    DCWindowDesign,
    PowerAllocation,
    WindowPair,
    dc_window,
    nominal_sidelobe_level,
    optimal_tx_window,
)
from .estimation import (
    PilotLayout,
    embed_pilot,
    estimate_channel,
    exact_interference_power,
    measured_ce_mse,
    predicted_mse_floor,
)
from .detection import (
    DetectionReport,
    analytic_detection_mse,
    mmse_detect,
    noise_covariance,
    spa_detect,
    tf_lmmse_detect,
)
from .oracles import dd_channel_matrix
from .harness import (
    ExperimentConfig,
    ResultRow,
    run_ce_mse,
    run_fer,
)
from .selfcheck import run_selfcheck

__version__ = "0.1.0"
