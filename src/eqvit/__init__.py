"""Provably shift-equivariant vision-transformer blocks with a test harness.

Circular shifts of the input move adaptive models' outputs instead of
changing them: tokenization, window attention, patch merging, and position
bias all re-anchor themselves to signal energy rather than to the array
origin.  The harness verifies those guarantees exhaustively at small sizes
and by randomized property tests at desk scale.
"""

from .errors import ConfigError, ParameterError, ShapeError, TraceError
from .numerics import GridSignal, lp_norm
from .tokenizer import INVARIANT_FNS, PatchEmbedConfig, TokenMatrix, a_token, token
from .attention import (
    AttentionParams,
    RpeTable,
    WINDOW_FNS,
    WindowConfig,
    a_wsa,
    position_bias,
    sa,
    window_energy,
    wsa,
)
from .merging import MergeConfig, a_pmerge, aps, pmerge, pmerge_conv_fullrate, unpool
from .pipeline import Model, ModelConfig, ModelWeights, build_model, classify, encode_decode
from .metrics import (
    ConsistencyReport,
    ShiftSampler,
    c_cons,
    mascc,
    s_cons_zeropad,
    synthetic_inputs,
)
from .trace import SelectionTrace, TraceEntry

__version__ = "0.1.0"
