"""Two-step counterfactual generation and scoring for OOD tabular data."""

__version__ = "0.1.0"

from .dataset import LabeledDataset, RawTable  # noqa: F401
from .projection import ProjectionModel, Standardizer  # noqa: F401
from .partition import Partition  # noqa: F401
from .density import GaussianComponent, PartitionDensityModel  # noqa: F401
from .counterfactual import (  # noqa: F401
    CfiConfig,
    CounterfactualResult,
    GenerationConfig,
)
from .report import EvalRow  # noqa: F401
